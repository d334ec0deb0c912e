"""Bruhat cell extraction over exact fields, flags, and cell enumeration.

The Borel subgroup B is fixed once and for all as the invertible upper
triangular matrices; every cell statement below is relative to that choice.
Each invertible g lies in exactly one double coset B.w_rep.B, and this module
recovers the indexing permutation w two independent ways: by one column pass
(bruhat_decompose), which eliminates on integer columns, each over one
denominator, records b2 as it goes and reads b1 off the reduced columns, and
from rank profiles of lower-left submatrices
(bruhat_cell_rank_profile).  Every other window in this module comes from
bruhat_decompose, so it arrives with a checked factorization.

Symplectic conventions
----------------------
The symplectic form is the antidiagonal J with +1 in rows 1..n and -1 in rows
n+1..2n, so that upper triangular symplectic matrices form a Borel of Sp_2n
and the GL_2n cell of a symplectic matrix always lands in the embedded
hyperoctahedral group (signed letter i sits at position i, -i at 2n+1-i).
Weyl representatives are normalized to the 0/1 permutation matrix in type A
and to the J-compatible signed monomial matrix in type C; torus ambiguity is
absorbed into the right Borel factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter, mul

from .errors import IntegrityError, SingularMatrixError, check_budget
from .exact import GF, ExactMatrix
from .weyl import GroupSpec, WeylElement, symplectic_signed_window

DEFAULT_CELL_BUDGET = 10**7


@dataclass(frozen=True)
class BruhatFactorization:
    """g = b1 * w_rep * b2 with b1, b2 invertible upper triangular."""

    w: WeylElement
    w_rep: ExactMatrix
    b1: ExactMatrix
    b2: ExactMatrix

    def product(self) -> ExactMatrix:
        return self.b1 * self.w_rep * self.b2


def bruhat_decompose(g: ExactMatrix) -> BruhatFactorization:
    """Factor an invertible matrix as b1 * w_rep * b2 by one column pass.

    Columns are processed left to right; the pivot of each column is its
    lowest nonzero entry in a not-yet-used row.  Scaling the pivot to 1 and
    clearing the pivot row to the right are right multiplications by B, each
    recorded as its inverse in b2, so g = a * b2 holds after every step.
    Afterwards column j of a is zero below its pivot row: the unused rows
    below it were zero when the pivot was chosen, and each earlier pivot row
    was cleared to its right.  So b1 = a * w_rep^-1, the columns of a put in
    window order, is upper unitriangular.

    The pass works on the field's integer form (see the exact module): each
    column of a is held as an integer vector v over one denominator d, as
    v / d, starting from the field's integers of the column.  Scaling column
    j to pivot 1 only sets its denominator to v[piv], and clearing column j2
    by it gives (v2 * pv - c * v) / (d2 * pv) with pv = v[piv] and
    c = v2[piv], which the field then normalizes.  Field elements are made
    only for the entries of b2 and b1: the field's zero and one where x is
    0 or d, else the field's quotient x / d.  The factors are then checked
    against g (_reconstructs).
    """
    if not g.is_square():
        raise ValueError("Bruhat decomposition needs a square matrix")
    f = g.field
    n = g.rows
    cols = [f.integers(col) for col in zip(*g.entries)]
    g_cols = cols.copy()  # g's own columns, for _reconstructs
    zero, one, quotient = f.zero, f.one, f.quotient

    def entry(x, d):
        return zero if not x else one if x == d else quotient(x, d)

    b2 = [[zero] * n for _ in range(n)]
    used = [False] * n
    window = [0] * n
    for j in range(n):
        v = cols[j][0]
        piv = next((i for i in range(n - 1, -1, -1) if not used[i] and v[i]), None)
        if piv is None:
            raise SingularMatrixError(
                f"matrix is singular: no unused nonzero pivot in column {j + 1}",
                column=j + 1,
            )
        used[piv] = True
        window[j] = piv + 1
        # row j of b2 is scaled by the pivot, then gains c * (row j2) for each
        # c = a[piv][j2] cleared below; each row j2 > j is still e_j2
        b2[j][j:] = [entry(v2[piv], d2) for v2, d2 in cols[j:]]
        # scaling column j to pivot 1 turns v / d into v / pv
        pv = v[piv]
        cols[j] = (v, pv)
        for j2 in range(j + 1, n):
            v2, d2 = cols[j2]
            c = v2[piv]
            if c:
                # v2 / d2 - (c / d2) * (v / pv)
                cols[j2] = f.normalized([x * pv - c * y for x, y in zip(v2, v)], d2 * pv)
    w = WeylElement(GroupSpec("A", n - 1), tuple(window))
    w_rep = ExactMatrix.permutation(f, window)
    # b1 = a * w_rep^-1 moves column j of a to column window[j]
    a = (cols[j] for j in sorted(range(n), key=window.__getitem__))
    b1 = ExactMatrix._reduced(f, tuple(zip(*([entry(x, d) for x in v] for v, d in a))))
    fact = BruhatFactorization(w, w_rep, b1, ExactMatrix._reduced(f, tuple(map(tuple, b2))))
    if not _reconstructs(fact, g_cols):
        raise IntegrityError("factorization failed to reconstruct the input")
    return fact


def _reconstructs(fact: BruhatFactorization, g_columns) -> bool:
    """Whether b1 * w_rep * b2 == g, with w_rep the permutation matrix of w
    and g given by its columns in the field's integer form.

    No field element is made: row i of b1 * w_rep (row i of b1 with its
    columns put in window order) is v1 / d1, column j of b2 is v2 / d2 and
    column j of g is gv / dg, so entry (i, j) holds when the field takes
    gv[i] * d1 * d2 and dg * (v1 . v2) for the same element.  The emitted
    b1 and b2 are read in full, and the columns compared one at a time.
    """
    f = fact.b1.field
    window = fact.w.window
    rows1 = []
    for row in fact.b1.entries:
        v, d = f.integers(row)
        rows1.append(([v[k - 1] for k in window], d))
    for (gv, dg), (v2, d2) in zip(g_columns, map(f.integers, zip(*fact.b2.entries))):
        if not all(map(f.same, [x * d1 * d2 for x, (_, d1) in zip(gv, rows1)],
                       [dg * sum(map(mul, v1, v2)) for v1, _ in rows1])):
            return False
    return True


def bruhat_cell_rank_profile(g: ExactMatrix) -> WeylElement:
    """The cell permutation read off rank profiles, independent of elimination.

    For g in the cell of w, the rank of the submatrix on rows i..n and
    columns 1..j equals #{k <= j : w(k) >= i}; the permutation positions are
    where the second difference of that table is 1.

    One pass gives the whole table: rows n, n-1, .., 1 go in turn into a
    basis keyed by leading column (the column of a row's first nonzero
    entry).  A row is reduced by the basis row of its leading column until
    that column is new, and it joins the basis there, or it reduces to 0.
    The basis stays in echelon form, so rank(rows i..n, columns 1..j) is the
    number of its leading columns below j once row i is in.  Rows are held
    in the field's integer form v / d, a basis row as u / pu with pu its
    leading entry, and a reduction v / d - (c / d) * (u / pu), c = v[lead],
    is (v * pu - c * u) / (d * pu), normalized by the field as the column
    pass of bruhat_decompose does.  This loop is the oracle's own: it shares
    no code with that column pass or with the exact module's elimination.
    """
    if not g.is_square():
        raise ValueError("rank profile needs a square matrix")
    n = g.rows
    f = g.field
    basis = {}
    ranks = [[0] * (n + 1) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        v, d = f.integers(g.entries[i - 1])
        lead = next(filter(v.__getitem__, range(n)), n)
        while lead in basis:
            u, pu = basis[lead]
            c = v[lead]
            v, d = f.normalized([x * pu - c * y for x, y in zip(v, u)], d * pu)
            lead = next(filter(v.__getitem__, range(lead + 1, n)), n)
        if lead < n:
            basis[lead] = v, v[lead]
        ranks[i] = [r + (j > lead) for j, r in enumerate(ranks[i + 1])]
    if ranks[1][n] != n:
        raise SingularMatrixError("matrix is singular: full rank profile missing")
    window = []
    for j in range(1, n + 1):
        hits = [
            i
            for i in range(1, n + 1)
            if ranks[i][j] - ranks[i + 1][j] - ranks[i][j - 1] + ranks[i + 1][j - 1] == 1
        ]
        if len(hits) != 1:
            raise IntegrityError(f"rank profile of column {j} is not a permutation step")
        window.append(hits[0])
    return WeylElement(GroupSpec("A", n - 1), tuple(window))


# ---------------------------------------------------------------------------
# complete flags


class Flag:
    """A complete flag: subspace i is the span of the first i basis columns."""

    __slots__ = ("basis",)

    def __init__(self, basis: ExactMatrix):
        if not basis.is_square():
            raise ValueError("a flag basis must be square")
        if basis.det() == basis.field.zero:
            raise SingularMatrixError("flag basis is singular")
        self.basis = basis

    @classmethod
    def standard(cls, field, n: int) -> "Flag":
        return cls(ExactMatrix.identity(field, n))

    @property
    def field(self):
        return self.basis.field

    @property
    def dimension(self) -> int:
        return self.basis.rows


def relative_position(f1: Flag, f2: Flag) -> WeylElement:
    """The Weyl element indexing the orbit of the pair (f1, f2): the cell of
    basis(f1)^-1 * basis(f2).  Invariant under a common change of frame and
    under column operations preserving each flag."""
    if f1.field != f2.field:
        raise ValueError("flags live over different fields")
    if f1.dimension != f2.dimension:
        raise ValueError("flags have different dimensions")
    return bruhat_decompose(f1.basis.inverse() * f2.basis).w


# ---------------------------------------------------------------------------
# type C root machinery (dimension 2n, form J as in the module docstring)


def symplectic_form(field, n: int) -> ExactMatrix:
    big = 2 * n
    mat = [[field.zero] * big for _ in range(big)]
    for i in range(1, n + 1):
        mat[i - 1][big - i] = field.one
        mat[big - i][i - 1] = field.neg(field.one)
    return ExactMatrix(field, mat)


def symplectic_membership(g: ExactMatrix) -> bool:
    """Whether g preserves the fixed antidiagonal symplectic form."""
    if not g.is_square() or g.rows % 2:
        return False
    j = symplectic_form(g.field, g.rows // 2)
    return g.transpose() * j * g == j


def sp_bruhat_decompose(g: ExactMatrix) -> WeylElement:
    """The signed-permutation cell of a symplectic matrix.

    Extracts the GL cell of g and converts the window through the embedding
    (weyl.symplectic_signed_window, which raises IntegrityError for a window
    outside the embedded group).
    """
    if not symplectic_membership(g):
        raise ValueError("matrix does not preserve the symplectic form")
    signed = symplectic_signed_window(bruhat_decompose(g).w.window)
    return WeylElement(GroupSpec("BC", g.rows // 2), signed)


def c_positive_roots(n: int) -> list[tuple]:
    """Positive roots of type C_n: ("d",i,j) = e_i - e_j and ("s",i,j) =
    e_i + e_j for i < j, ("l",i) = 2 e_i.  There are n^2 of them."""
    roots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(("d", i, j))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(("s", i, j))
    for i in range(1, n + 1):
        roots.append(("l", i))
    return roots


def inverted_roots(w: WeylElement) -> list[tuple]:
    """Positive roots alpha with w^-1(alpha) negative, in c_positive_roots
    order; there are length(w).

    alpha is inverted exactly when the window of the embedding of w^-1 in
    S_2n puts alpha's first position pair (r, c) (c_root_positions) out of
    order: that window sends the GL_2n root e_r - e_c negative, and alpha
    with it.  The count is held to the length
    l_BC(w) = inv(w~(1..n)) + sum over w(i) < 0 of (n + 1 - |w(i)|),
    read off the embedded window w~ of w by the weyl module.
    """
    if w.spec.family != "BC":
        raise ValueError("inverted_roots works on the type C root system")
    n = w.spec.rank
    window = w.inverse().embed_in_symmetric().window
    pairs = {root: c_root_positions(root, n)[0][:2] for root in c_positive_roots(n)}
    roots = [root for root, (r, c) in pairs.items() if window[r] > window[c]]
    if len(roots) != w.length():
        raise IntegrityError(f"{w} inverts {len(roots)} roots but has length {w.length()}")
    return roots


def c_root_positions(root: tuple, n: int) -> list[tuple[int, int, int]]:
    """Entry positions (row, col, coefficient) of the nilpotent part of the
    one-parameter subgroup of Sp_2n attached to the root (0-based)."""
    big = 2 * n
    if root[0] == "l":
        i = root[1]
        return [(i - 1, big - i, 1)]
    kind, i, j = root
    if kind == "d":
        return [(i - 1, j - 1, 1), (big - j, big - i, -1)]
    return [(i - 1, big - j, 1), (j - 1, big - i, 1)]


def c_root_element(field, n: int, root: tuple, t) -> ExactMatrix:
    """The symplectic one-parameter element: identity plus t at the root
    positions.  Upper triangular exactly for positive roots."""
    t = field.coerce(t)
    mat = [list(row) for row in ExactMatrix.identity(field, 2 * n).entries]
    for r, c, v in c_root_positions(root, n):
        mat[r][c] = field.mul(t, field.coerce(v))
    return ExactMatrix(field, mat)


def sp_weyl_matrix(w: WeylElement, field) -> ExactMatrix:
    """The J-compatible signed monomial representative of a BC element:
    columns 1..n carry +1, column 2n+1-i carries -1 exactly when w(i) < 0."""
    if w.spec.family != "BC":
        raise ValueError("symplectic representatives exist for family BC")
    n = w.spec.rank
    big = 2 * n
    perm = w.embed_in_symmetric().window
    mat = [[field.zero] * big for _ in range(big)]
    for j in range(1, big + 1):
        if j <= n:
            value = field.one
        else:
            value = field.one if w.window[big - j] > 0 else field.neg(field.one)
        mat[perm[j - 1] - 1][j - 1] = value
    return ExactMatrix(field, mat)


def sp_torus_matrix(field, n: int, diag) -> ExactMatrix:
    big = 2 * n
    mat = [[field.zero] * big for _ in range(big)]
    for i, t in enumerate(diag):
        t = field.coerce(t)
        mat[i][i] = t
        mat[big - 1 - i][big - 1 - i] = field.inv(t)
    return ExactMatrix(field, mat)


# ---------------------------------------------------------------------------
# cell enumeration over prime fields


def borel_order(family: str, rank: int, q: int) -> int:
    """|B(F_q)|: the GL Borel for family A, the symplectic Borel for BC."""
    if family == "A":
        n = rank + 1
        return (q - 1) ** n * q ** (n * (n - 1) // 2)
    if family == "BC":
        return (q - 1) ** rank * q ** (rank * rank)
    raise ValueError(f"no matrix group wired for family {family}")


def cell_order(w: WeylElement, q: int) -> int:
    return q ** w.length() * borel_order(w.spec.family, w.spec.rank, q)


def gl_free_positions(window: tuple[int, ...]) -> list[tuple[int, int]]:
    """Strictly-upper positions (i, j), 0-based, that parametrize the
    unipotent factor of the cell: one per inversion of the window."""
    n = len(window)
    inv = [0] * (n + 1)
    for pos, image in enumerate(window, start=1):
        inv[image] = pos
    return [(i, j) for i in range(n) for j in range(i + 1, n) if inv[i + 1] > inv[j + 1]]


def gl_borel_matrices(field, n: int):
    """Every element of the GL Borel over a prime field, exactly once, in
    itertools.product order: the diagonal over (F_q^*)^n outermost, then
    the strict upper entries, row by row, over F_q.  The entries are
    residues already, so each element is made by ExactMatrix._reduced."""
    q = field.p
    uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(range(1, q), repeat=n):
        for strict in itertools.product(range(q), repeat=len(uppers)):
            mat = [[0] * n for _ in range(n)]
            for i, d in enumerate(diag):
                mat[i][i] = d
            for (i, j), v in zip(uppers, strict):
                mat[i][j] = v
            yield ExactMatrix._reduced(field, tuple(map(tuple, mat)))


def _root_products(field, n: int, starts, roots):
    """Each start times one element of each root subgroup in roots, in that
    order, for every choice of parameters, in itertools.product order.

    Each element is the product already made for its parameter prefix
    times one root element.  prods[k] is the start times the root elements
    of the first k parameters; the next parameters in product order change
    parameter k and zero those after it, so only prods[k + 1] is made anew,
    and the later prefixes equal it (a parameter 0 multiplies by nothing).
    So each element costs one matrix product, not up to len(roots), and the
    stream keeps only len(roots) + 1 products.  Each root element is built
    once per call.
    """
    q = field.p
    r = len(roots)
    steps = [[None] + [c_root_element(field, n, root, t) for t in range(1, q)] for root in roots]
    for start in starts:
        prods = [start] * (r + 1)
        params = [0] * r
        while True:
            yield prods[r]
            k = r - 1
            while k >= 0 and params[k] == q - 1:
                params[k] = 0
                k -= 1
            if k < 0:
                break
            params[k] += 1
            prods[k + 1:] = [prods[k] * steps[k][params[k]]] * (r - k)


def sp_borel_matrices(field, n: int):
    """Every element of the symplectic Borel over a prime field: a torus
    element times the positive root elements in a fixed order."""
    diags = itertools.product(range(1, field.p), repeat=n)
    tori = (sp_torus_matrix(field, n, diag) for diag in diags)
    return _root_products(field, n, tori, c_positive_roots(n))


def enumerate_cell(w: WeylElement, q: int, budget: int = DEFAULT_CELL_BUDGET):
    """Yield every element of the cell of w over GF(q), exactly once.

    Type A yields GL matrices, type BC symplectic ones.  Elements come out
    as u * w_rep * b with u running over the free unipotent coordinates
    (one per positive root inverted by w) and b over the whole Borel, which
    is streamed once: the q^length(w) <= sqrt(budget) prefixes are kept.
    The order is the prefixes' order for each b in the Borel's stream order.

    Row i of u * w_rep * b is (row i of u * w_rep) * b, and the prefixes
    share few rows (40 distinct rows among the 81 prefixes of the w0 cell of
    BC_2 at q = 3).  So each prefix is kept as the ids of its rows among the
    distinct rows of all prefixes, and as one operator.itemgetter of those
    ids, which gathers an element's rows in C.  For each b, every distinct
    row is multiplied by b once, and each element is gathered from those
    images.  A row's image takes one integer dot product (Kronecker
    substitution): row k of b is read as the integer
    sum_c b[k][c] * 2^(width * c), and an entry of r * b is at most
    m (q - 1)^2 < 2^width for m x m matrices, so r . (those integers) holds
    each entry of r * b in its own width bits, with no carry between them.
    """
    field = GF(q)
    size = cell_order(w, q)
    check_budget(size, budget, f"cell of {w} over GF({q}) has {size} elements")
    if w.spec.family == "A":
        n = w.spec.degree
        w_rep = ExactMatrix.permutation(field, w.window)
        free = gl_free_positions(w.window)
        if len(free) != w.length():
            raise IntegrityError(f"{w}: {len(free)} free positions for length {w.length()}")
        prefixes = []
        for params in itertools.product(range(q), repeat=len(free)):
            mat = [list(row) for row in ExactMatrix.identity(field, n).entries]
            for (i, j), t in zip(free, params):
                mat[i][j] = t
            prefixes.append(ExactMatrix(field, mat) * w_rep)
        borel = gl_borel_matrices(field, n)
    elif w.spec.family == "BC":
        n = w.spec.rank
        w_rep = sp_weyl_matrix(w, field)
        unipotents = _root_products(field, n, [ExactMatrix.identity(field, 2 * n)],
                                    inverted_roots(w))
        prefixes = [u * w_rep for u in unipotents]
        borel = sp_borel_matrices(field, n)
    else:
        raise ValueError("no matrix group wired for family D")
    rows = {}
    prefix_rows = [[rows.setdefault(r, len(rows)) for r in uw.entries] for uw in prefixes]
    # itemgetter of one id gives the row, not a 1-tuple of it
    gathers = [itemgetter(*ids) if len(ids) > 1 else lambda images, i=ids[0]: (images[i],)
               for ids in prefix_rows]
    m = w_rep.rows
    width = (m * (q - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, width * m, width)
    reduced = ExactMatrix._reduced
    for b in borel:
        packed = [sum([x << s for x, s in zip(row, shifts)]) for row in b.entries]
        images = [tuple([(v >> s & mask) % q for s in shifts])
                  for v in [sum(map(mul, r, packed)) for r in rows]]
        for gather in gathers:
            yield reduced(field, gather(images))
