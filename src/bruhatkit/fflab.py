"""Finite-field laboratory: exhaustive checks of the cell/class interplay.

Groups GL_n, SL_n and Sp_2n over small prime fields are enumerated exactly
(BFS closure from generators, orders cross-checked against the closed
formulas), and their unipotent elements are found and given their Jordan
types.  The Bruhat cell window of an element is computed on demand, and
verify computes only the windows it reports: those of the unipotent
elements and of its spot-check samples.  On top of that sit two
verification drivers:

* verify_theorem_a: for every Weyl class C and every minimal-length w in C,
  the Jordan types meeting the cell of w have a unique dominance-least
  member, it matches the class-to-unipotent map, and it does not depend on
  the choice of w.
* verify_property_d: for elliptic classes, two finite-field proxies for the
  geometric statements.  "Finitely many Borel orbits" is probed by checking
  the exact B(F_q)-orbit count on the intersection is the same at different
  primes, and the centralizer dimensions by the growth exponent
  log(|Z(F_q')|/|Z(F_q)|) / log(q'/q), which should round to the minimal
  length, with |Z_B(F_q)| staying constant.  These are proxies, not proofs;
  reports say so.

One rational form's exponent only rounds to dim Z_G: its |Z(F_q)| carries
first-order factors such as (q - 1) or (q + 1), which at q = 3, 5 move it
to 4.357 and 3.794 for dim Z_G = 4.  A sharper estimate is the exponent of
the class mass M(q) = sum over the distinct G(F_q)-classes met of
|class| / |G(F_q)|, i.e. sum 1/|Z_G| over the rational forms: by Lang's
theorem the forms together make up gamma(F_q), and their first-order terms
cancel in the sum (for the longest element of W(C_2), 2q^3(q -+ 1) give
M = 1/(q^2(q^2 - 1))).  scan_property_d records the class sizes and
PropertyDScan.mass_exponents gives log(M(q)/M(q')) / log(q'/q); the masses
stay out of the verify report, whose format is fixed.

Bulk scans run on int64 numpy arrays with explicit reductions mod p (_mod,
by floor division), except the Borel grid, which is kept entry-major in the
narrowest signed dtype that holds q - 1 (borel_grid), and decoded codes,
kept entry-major in the narrowest that holds a code (_decode).  Everything
stays exact.  A reduced matrix has one key, its int64 code (_codes): its entries
read row by row as base-p digits.  Groups, orbits and classes are kept as
codes, and their dedup and membership tests work on them.  A group is listed
by right cosets of its chain of subgroups <g_1> <= <g_1, g_2> <= ...
(_group_codes, Dimino's algorithm): each coset of the subgroup listed so far
is made whole, from one representative, so each element's code is made about
once and membership is tested only for the representatives.  An orbit is
grown breadth-first, a whole level at a time (conjugation_orbit), the only
orbit BFS here; a conjugation-stable set is split into its orbits in one
pass that grows none (_partition_into_orbits): each generator becomes a
permutation of the set's sorted codes, and each member is labelled by the
least member joined to it.  All of them run on 1-D code arrays and return
codes, ascending, so that tables and orbits depend only on the set
generated, not on its generators, and each caller decodes (_decode) only
the rows it reads: the group table decodes rows on demand, and a
property-D scan the least element of each B_w-orbit.  A group closure is
told the group order, and marks the codes it has listed in a byte map of
all q^(n^2) codes when that map holds at most 8 codes per element (q^(n^2)
<= 8 * |G|), so that it takes at most 8 bytes per element, and hands back
its codes in the narrowest signed dtype that holds one (_code_dtype);
larger code spaces, orbits and the other member sets keep sorted code
arrays, with numpy sorting and binary search.  A group closure multiplies
on the right, which acts on each row alone: one table per
matrix maps the code of a row to the code of its image, so a matrix code
moves by n table lookups on its base-p^n digits.  Conjugation decodes the
codes once and codes the products (_conjugates).  Unipotent elements are
found by their characteristic polynomial, which must be (x - 1)^n: e_k, the
sum of the principal k x k minors, must be C(n, k) mod p.  One kernel (_ek_mask)
tests e_k for k <= 3, each on the survivors of the last, and that decides
for SL_n and GL_n with n <= 4 and Sp_2m with m <= 3: det = 1 fixes e_n in SL,
the polynomial of Sp is palindromic, and GL's walk reads e_n = det off the
grid's diagonal (_coefficient_tests).  Elsewhere the power test
(g - 1)^n = 0 (_unipotent_mask) decides the survivors.  The table reads
each trace off its code, the diagonal digits, and decodes only the elements
that pass, 74,500 of the 372,000 of SL_3(F_5), entry-major in the code
dtype; a slice scan sums each trace off the Borel grid's contiguous entry
rows.  Both run the same kernel on their entry rows, the table with the
identity for w_rep, and gather only its survivors.  The codes are
exact only while p^(n^2) <= 2^63, and coding a matrix past that bound raises
a ValueError.  Under the default budgets only Sp_8 at the bad prime 2 (2^64)
is past it; a raised cell budget also reaches Sp_4(F_17).  One batched pivot
kernel, _column_pivots, eliminates whole (B, n, n) stacks at once, laid out
batch-last so that each step runs over contiguous rows of B entries: its
pivot rows are the Bruhat cell windows, and its pivot counts on the powers
of g - 1, one call per power, are the ranks that give Jordan types.  The
ExactMatrix paths (the window of bruhat_decompose, checked by its
factorization; jordan_type; ExactMatrix.rank) share no code with it and
serve as its oracles in the tests.  Every group is built from one-parameter
root subgroups by one set of helpers (_roots, _root_family, _torus): the
generators of G, B and B_w, and B(F_q) itself.

No cell is built whole.  Each g in BwB is u w_rep b for one u in U_w (the
product of the root subgroups that w inverts) and one b in B, and u^-1 g u =
w_rep (b u).  So (u, x) -> u x u^-1 is a bijection from U_w x w_rep B onto
BwB: each Jordan type occurs q^length(w) times as often in the cell as in
the slice w_rep * B.  For property (d), let B_w = B ∩ w_rep B w_rep^-1, of
order |B| / q^length(w).  By the uniqueness of u, slice elements that are
B-conjugate are B_w-conjugate and Z_B(x) = Z_{B_w}(x) on the slice, so each
B-orbit of gamma ∩ BwB meets the slice in one B_w-orbit, q^length(w) times
smaller, with the same centralizers in B and in G.  So |Z_B(x)| is read off
that orbit by orbit-stabilizer, |B_w| / |orbit|; borel_centralizer_order,
a direct commuting scan of B, is its oracle in the tests.

Centralizers in G of Sp at odd q are read off invariants, and no class is
built (_classes_met).  The Cayley transform e = (u - 1)(u + 1)^-1 of a
unipotent u is a nilpotent element of sp with u's Jordan type λ, and
conjugation carries one to the other.  For each even part size i, the
symmetric form <x, e^(i-1) y> on a complement of ker e^(i-1) + e ker e^(i+1)
in ker e^i has a discriminant mod squares, and λ with these discriminants
names the G(F_q)-class of u (G. E. Wall, "On the conjugacy classes in the
unitary, symplectic and orthogonal groups", 1963; _sp_class_key).  Then
|Z_G| = q^(dim Z - dim R) |R(F_q)|, where dim Z = 1/2 sum_j λ'_j^2 + 1/2
#{odd parts} (Collingwood-McGovern, Nilpotent Orbits in Semisimple Lie
Algebras, Cor. 6.1.4) and R = prod_{i odd} Sp_{m_i} x prod_{i even} O_{m_i}
is the reductive part, each orthogonal group split or not as its form's
discriminant says (_sp_centralizer_order).  Summed over the forms of λ,
|G| / |Z_G| is the census of the type, which the table checks for Sp as it
checks GL and SL (_check_type_census).

SL, and Sp at q = 2, take one of two routes.  Z_G(g) is the part of G in the
commutant {X : X g = g X}, a linear space of some dimension k whose basis
is one n^2 x n^2 nullspace mod p (GF(p).nullspace); its q^k members
are enumerated in numpy batches and kept when in G (X^T J X = J for Sp, det
1 for SL).  b is G-conjugate to g when some X in G solves X g = b X, a space
of the same kind.  This route is taken when q^(2k) <= |G|, so that the q^k
candidates are no more than |G| / q^k, which bounds the class size from
below.  Otherwise the class is grown by BFS under conjugation by the
generators (conjugation_orbit), within the cell budget, and |Z_G| =
|G| / |class|.  k is a class invariant, so each class takes one route; the
tests hold the two routes, and the invariants for Sp, against each other.
In Sp_4 the Coxeter classes (k = 4, 187,200 elements at q = 5) would go by
the commutant, and the classes of the longest element (k = 8, 6,240 and
9,360 elements) by BFS.

This module holds the package's only numpy import, and it imports numpy
with one OpenBLAS thread: nothing here uses BLAS or floats (every product is
on integer arrays), and an OpenBLAS worker thread busy-waits for about 60 ms
of CPU time after start-up.  The rule applies only when numpy is not
imported yet and none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS is set, and it leaves os.environ as it found it.  To keep
OpenBLAS's own thread count, set one of those variables or import numpy
before bruhatkit.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cells import (
    DEFAULT_CELL_BUDGET,
    borel_order,
    c_positive_roots,
    c_root_positions,
    sp_weyl_matrix,
    symplectic_form,
)
from .errors import IntegrityError, SingularMatrixError, check_budget
from .exact import ExactMatrix, GF, is_prime
from .partitions import Partition, dominance_leq, is_symplectic_partition, partitions_of
from .phimap import PhiRow, phi
from .weyl import (
    DEFAULT_RANK_CAP,
    ConjugacyClass,
    GroupSpec,
    WeylElement,
    chevalley_order,
    conjugacy_classes,
    gl_order,
    symplectic_signed_window,
)

# numpy with one OpenBLAS thread (see the module docstring).  The variable
# is set for the import alone, so child processes inherit the caller's
# environment.  Keep this the package's only numpy import: a copy that
# imported numpy first thing in __init__ skipped this rule, and its
# `import bruhatkit` peaked at 32.0 MB RSS against 28.7 MB.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules or any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

DEFAULT_ENUM_BUDGET = 10**8
# the largest distance of a growth exponent from d_C that a property-D row
# counts as within tolerance; every row prints it
EXPONENT_TOLERANCE = 0.25
_MAX_NUMPY_PRIME = 2**20  # int64 stays exact with huge margin below this
# matrices per numpy batch in slice scans, the table's window pass, the
# Borel centralizer scan and the commutant enumeration, and codes per chunk
# of cosets in a group closure; it keeps the temporaries of a whole-group
# run (372,000 elements of SL_3(F_5)) or of a scan over a Borel grid (10^6
# elements of SL_4(F_5), whose int8 grid holds 16 MB) small.  The grid
# itself is whole: theorem A and property D build one per prime and hold it
# for one call
_CHUNK = 200_000
# codes per batch of the table's unipotent pass, whose trace temporaries
# are each as long as the batch, per block of _decode and per block a
# closure marks in its byte map (_mark): on the 372,000
# codes of SL_3(F_5) the pass takes 2.9 ms with a traced peak of 1.6 MB,
# the same time as per 2^17 codes (2.5 MB), against 3.7 ms and 1.3 MB per
# 2^15 codes and 3.1 ms and 3.4 MB per _CHUNK (best of 9, 2-vCPU VM); its
# traces take 1.0 ms of it, against 4.1 ms for int64 traces reduced digit
# by digit
_TRACE_CHUNK = 2 ** 16
# matrices per batch of Jordan ranks: on the 15,625 unipotent elements of
# SL_3(F_5) the traced peak is 1.6 MB against 4.8 MB in one batch, and the
# time 5.7 ms against 7.2 ms (best of 15, 2-vCPU VM), as the powers of
# g - 1 and their batch-last copies stay in cache
_JORDAN_CHUNK = 4096

KIND_NAMES = ("GL", "SL", "Sp")


@dataclass(frozen=True)
class GroupKind:
    """One of the wired matrix groups: GL(n), SL(n) or Sp(n) with n even."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in KIND_NAMES:
            raise ValueError(f"unknown group kind {self.family!r}")
        if self.n < 2:
            raise ValueError("matrix size must be at least 2")
        if self.family == "Sp" and self.n % 2:
            raise ValueError("Sp needs even matrix size")

    @property
    def weyl_spec(self) -> GroupSpec:
        if self.family == "Sp":
            return GroupSpec("BC", self.n // 2)
        return GroupSpec("A", self.n - 1)

    @property
    def bad_primes(self) -> tuple[int, ...]:
        return (2,) if self.family == "Sp" else ()

    def order(self, q: int) -> int:
        if self.family == "GL":
            return gl_order(self.n, q)
        return chevalley_order(self.weyl_spec, q)

    def borel_order(self, q: int) -> int:
        if self.family == "GL":
            return borel_order("A", self.n - 1, q)
        if self.family == "SL":
            return borel_order("A", self.n - 1, q) // (q - 1)
        return borel_order("BC", self.n // 2, q)

    def num_positive_roots(self) -> int:
        return self.weyl_spec.num_positive_roots()

    def __str__(self):
        return f"{self.family}({self.n})"


def parse_kind(name: str, n: int) -> GroupKind:
    normalized = {"gl": "GL", "sl": "SL", "sp": "Sp"}.get(name.lower())
    if normalized is None:
        raise ValueError(f"unknown group kind {name!r}; expected gl, sl or sp")
    return GroupKind(normalized, n)


# ---------------------------------------------------------------------------
# generators and BFS enumeration


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise IntegrityError(f"no primitive root mod {p}")


def _np(m: ExactMatrix) -> np.ndarray:
    return np.array([[int(x) for x in row] for row in m.entries], dtype=np.int64)


def group_generators(kind: GroupKind, q: int) -> list[np.ndarray]:
    """Generating matrices over GF(q): the root elements x_a(1) and x_-a(1)
    of each simple root a, plus one torus generator for GL."""
    gens = []
    for root in _simple_roots(kind):
        gens += [_root_family(kind.n, root, q)[1], _root_family(kind.n, _negative(root), q)[1]]
    if kind.family == "GL" and q > 2:
        h = np.eye(kind.n, dtype=np.int64)
        h[0, 0] = _primitive_root(q)
        gens.append(h)
    return gens


def _fresh_in_sorted(images: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct images not in the sorted ``seen``, ascending, and
    ``seen`` with them inserted: the images are sorted, their repeats
    dropped, and the rest looked up by binary search."""
    codes = _distinct(np.sort(images))
    at = np.searchsorted(seen, codes)
    fresh = ~_found(seen, codes, at)
    return codes[fresh], np.insert(seen, at[fresh], codes[fresh])


def _distinct(codes: np.ndarray) -> np.ndarray:
    """These sorted codes with their repeats dropped, compared in their own
    dtype (np.diff with a prepended Python int would widen narrow codes to
    int64)."""
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _marked(seen: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which codes a group closure has listed: ``seen`` is a bool map of
    the code space or a sorted code array (_found)."""
    return seen[codes] if seen.dtype == bool else _found(seen, codes)


def _found(sorted_codes: np.ndarray, codes: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """Which codes occur in a sorted code array, by binary search; ``at``
    may pass their np.searchsorted positions in it."""
    if at is None:
        at = np.searchsorted(sorted_codes, codes)
    if not len(sorted_codes):
        return np.zeros(len(codes), dtype=bool)
    return sorted_codes[np.minimum(at, len(sorted_codes) - 1)] == codes


def _codes(stack: np.ndarray, p: int) -> np.ndarray:
    """The int64 code of each matrix in a (k, n, n) stack of residues mod p:
    its entries read row by row as base-p digits.  Codes are exact only while
    p^(n^2) <= 2^63; past that bound this raises a ValueError."""
    n = stack.shape[1]
    if p ** (n * n) > 2 ** 63:
        raise ValueError(f"closure of {n}x{n} matrices over GF({p}) needs {p}^{n * n} "
                         f"int64 codes, more than 2^63")
    return stack.reshape(len(stack), n * n) @ p ** np.arange(n * n - 1, -1, -1, dtype=np.int64)


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p, in place, returned: a -= (a // p) * p.  numpy's floor
    division by a scalar has a SIMD path and % has not: on 160,000 int64
    values (numpy 2.4.6, 2-vCPU VM) % takes 0.73 ms against 0.40 ms for
    this, and 1.7 ms against 0.37 ms on negative values.  For arrays the
    caller owns; the quotient is one temporary of a's size."""
    a -= a // p * p
    return a


def _signed_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -bound..bound; past
    int64 this raises a ValueError."""
    for t in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(t).max:
            return np.dtype(t)
    raise ValueError(f"no signed integer dtype holds -{bound}..{bound}, past int64")


@functools.cache
def _code_dtype(p: int, n: int) -> np.dtype:
    """The narrowest signed dtype that holds every code of n x n matrices
    mod p, p^(n^2) - 1: int32 for SL_3(F_5), int64 for Sp_4(F_5).  A sum of
    n products of two residues is below p^(n^2) too, so a product of two
    stacks in this dtype is exact when it is reduced mod p before the next."""
    return _signed_dtype(p ** (n * n) - 1)


def _decode(codes: np.ndarray, p: int, n: int) -> np.ndarray:
    """The (k, n, n) stack of the matrices with these codes (_codes), in the
    code dtype (_code_dtype), as the transpose view of one entry-major
    (n^2, k) array, as borel_grid returns its grid.

    Row j of that array is first codes // p^(n^2 - 1 - j), one scalar divisor
    per row, which numpy divides on its SIMD path; then digit j is that
    quotient less p times the quotient of row j - 1, with no reduction.  On
    the 74,500 trace survivors of SL_3(F_5) this takes 0.57 ms against
    5.4 ms for the int64 division of every code by every power and a
    reduction mod p, on 5,000 of them 27 us against 356 us, and on 16 codes
    (a small orbit level) 6.0 us against 4.7 us (best of 15, 2-vCPU VM).
    It goes per _TRACE_CHUNK of codes, each narrowed on its own where it is
    int64 (orbit codes), so that the decode of a whole group holds its
    codes, the stack and one chunk's temporaries."""
    dtype = _code_dtype(p, n)
    powers = p ** np.arange(n * n - 1, -1, -1, dtype=dtype)[:, None]
    digits = np.empty((n * n, len(codes)), dtype=dtype)
    for start in range(0, len(codes), _TRACE_CHUNK):
        block = digits[:, start:start + _TRACE_CHUNK]
        chunk = codes[start:start + _TRACE_CHUNK].astype(dtype, copy=False)
        np.floor_divide(chunk, powers, out=block)
        block[1:] -= block[:-1] * p
    return digits.reshape(n, n, -1).transpose(2, 0, 1)


def _conjugates(codes: np.ndarray, pairs, p: int, n: int) -> list[np.ndarray]:
    """The codes of g x g^-1 mod p for the n x n matrices x with these codes
    (_codes), one array per pair (g, g^-1) of ``pairs``: the codes are
    decoded once."""
    batch = _decode(codes, p, n)
    return [_codes(_mod(_mod(g @ batch, p) @ ginv, p), p) for g, ginv in pairs]


def _row_codes(codes: np.ndarray, p: int, n: int) -> list[np.ndarray]:
    """The codes of the rows of the n x n matrices with these codes
    (_codes), first row first: their n base-p^n digits."""
    rows, rest = [], codes
    for j in range(n - 1, 0, -1):
        row, rest = np.divmod(rest, p ** (n * j))
        rows.append(row)
    rows.append(rest)
    return rows


def _right_multiplication_step(gens, p: int, n: int):
    """The images of matrices under right multiplication by each of the
    matrices ``gens`` (generators, or coset representatives), x -> x g mod
    p: step(rows), given the row codes of the x (_row_codes), is the
    (len(gens), len(x)) array whose row j holds the codes of x g_j.

    x -> x g acts on each row of x alone, so one table per matrix g, of
    the p^n row codes r -> code of r g mod p, moves a matrix code: each of
    its row codes is looked up, and the images are put back together by
    Horner's rule, one gather and one multiply-add per row (an integer
    matrix product has no BLAS path).  The tables of all the matrices are
    made by one int64 product and kept in the code dtype (_code_dtype), and
    so are the images: each partial Horner value is below p^(n^2)."""
    digits = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = np.arange(p ** n, dtype=np.int64)[:, None] // digits % p
    tables = (rows @ np.asarray(gens, dtype=np.int64) % p @ digits).astype(_code_dtype(p, n))
    base = p ** n

    def step(row_codes):
        out = tables[:, row_codes[0]]
        for row in row_codes[1:]:
            out *= base
            out += tables[:, row]
        return out

    return step


def _mark(seen: np.ndarray, codes: np.ndarray):
    """Marks these codes in a byte map of the code space, a _TRACE_CHUNK of
    them at a time cast to intp, the index type numpy indexes by: the
    closure of SL_4(F_3), 12,130,560 int32 codes into a map of 3^16 bytes,
    spends 0.24 s marking so against 0.34 s with the codes as they are, and
    that of SL_3(F_5) 3.1 ms against 2.8 ms (2-vCPU VM)."""
    flat = codes.ravel()
    for start in range(0, len(flat), _TRACE_CHUNK):
        seen[flat[start:start + _TRACE_CHUNK].astype(np.intp)] = True


def _listed(seen: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The codes a byte map of the code space marks, ascending, in this
    dtype: the map is listed _CHUNK bytes at a time into one array, so no
    int64 listing of the whole map is made.  Each block's positions are
    offset straight into that array, all below the map's length."""
    codes = np.empty(np.count_nonzero(seen), dtype=dtype)
    at = 0
    for start in range(0, len(seen), _CHUNK):
        block = np.flatnonzero(seen[start:start + _CHUNK])
        np.add(block, start, out=codes[at:at + len(block)], casting="unsafe")
        at += len(block)
    return codes


def _group_codes(gens: list[np.ndarray], p: int, limit: int, order: int) -> np.ndarray:
    """The codes (_codes) of the group of this order that the generators
    produce, ascending and in the code dtype (_code_dtype), listed by right
    cosets of its chain of subgroups (Dimino's algorithm; G. Butler,
    Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

    With H = <g_1..g_(k-1)> listed, g_k is skipped when it lies in H, and
    otherwise <g_1..g_k> is walked coset by coset out from H: the
    candidates are each new coset representative times each of g_1..g_k,
    and a candidate c not yet listed gives the whole coset H c, its row
    table applied to the row codes of H (_right_multiplication_step).  Two
    candidates in one coset give the same codes, so one is kept per least
    code.  So each code is made once, but for the cosets met twice in one
    chunk of candidates, and membership is tested for the candidates alone.
    The candidates are taken a chunk at a time, so that the cosets and the
    row tables of a chunk hold at most _CHUNK entries.

    Listed codes are marked in a byte map of the code space, p^(n^2) codes,
    when that holds at most 8 codes per element, p^(n^2) <= 8 * order: then
    the map takes at most 8 bytes per element.  A chunk's cosets are marked
    whole there, a coset met twice marking the same bytes again, and the map
    is listed a block at a time (_listed).  Otherwise the codes are kept as
    a sorted array, which each chunk's distinct cosets are sorted into.
    The order picks nothing else.  Distinct cosets are disjoint, so the
    distinct codes marked must be as many as the codes listed; if they are
    not, a generator is singular, and this raises IntegrityError.  Listing
    more than ``limit`` codes raises BudgetError, and so do row tables of
    more than ``limit`` entries: they hold p^n, as many as the group has at
    least elements."""
    n = gens[0].shape[0]
    identity = _codes(np.eye(n, dtype=np.int64)[None], p)  # past int64 this names the matrices
    dtype = _code_dtype(p, n)
    identity = identity.astype(dtype)
    check_budget(p ** n, limit, f"group closure row tables hold {p}^{n} = {p ** n} entries")
    space = p ** (n * n)
    in_map = space <= 8 * order
    if in_map:
        seen = np.zeros(space, dtype=bool)
        seen[identity] = True
    else:
        seen = identity
    total = 1
    gen_codes = _codes(np.asarray(gens, dtype=np.int64) % p, p).astype(dtype)
    for k, g in enumerate(gen_codes[:, None], 1):
        if _marked(seen, g)[0]:
            continue
        moves = _right_multiplication_step(gens[:k], p, n)
        subgroup = _row_codes(_listed(seen, dtype) if in_map else seen, p, n)
        per_chunk = max(1, _CHUNK // max(len(subgroup[0]), n * p ** n))
        frontier = identity
        while len(frontier):
            candidates = _distinct(np.sort(moves(_row_codes(frontier, p, n)), axis=None))
            candidates = candidates[~_marked(seen, candidates)]
            reps = []
            for start in range(0, len(candidates), per_chunk):
                chunk = candidates[start:start + per_chunk]
                chunk = chunk[~_marked(seen, chunk)]
                if not len(chunk):
                    continue
                cosets = _right_multiplication_step(_decode(chunk, p, n), p, n)(subgroup)
                _, first = np.unique(cosets.min(axis=1), return_index=True)
                total += len(first) * cosets.shape[1]
                check_budget(total, limit, f"group closure reached {total} elements")
                if in_map:
                    _mark(seen, cosets)
                else:
                    seen = np.concatenate([seen, cosets[first].ravel()])
                    seen.sort()
                reps.append(chunk[first])
            frontier = np.concatenate([np.empty(0, dtype=dtype), *reps])
        del subgroup  # n arrays as long as H, not to be held while the group is listed
    codes = _listed(seen, dtype) if in_map else _distinct(seen)
    if len(codes) != total:
        raise IntegrityError(f"group closure listed {total} codes but marked {len(codes)}: "
                             f"a generator is not invertible")
    return codes


def _mulclose(gens: list[np.ndarray], p: int, limit: int, order: int) -> np.ndarray:
    """The group of this order, as the (N, n, n) stack of its elements in
    code order: _group_codes, the coset closure, decoded.  Nothing here
    calls it; it stays while the benchmark's traced fflab.closure layer
    (perfbench/tracing.py) and its test hook this name."""
    return _decode(_group_codes(gens, p, limit, order), p, gens[0].shape[0])


def _code_traces(codes: np.ndarray, p: int, n: int) -> np.ndarray:
    """tr mod p of the n x n matrices with these codes (_codes), without
    decoding them: entry (i, i) is the base-p digit of p^(n^2 - 1 - i(n + 1)),
    and code // p^e is that digit plus p times the digits above it, so the
    trace is the sum of those quotients mod p, reduced once.  The last
    entry, the digit of p^0, is taken as code mod p, so that the sum stays
    below p^(n^2 - n), in the dtype of the codes: for a group closure's
    codes the code dtype (_code_dtype), which they are divided in, uncopied."""
    trace = codes - codes // p * p
    for i in range(n - 1):
        trace += codes // p ** (n * n - 1 - i * (n + 1))
    return _mod(trace, p)


class FiniteGroupTable:
    """The fully enumerated group, kept as codes, with its unipotent data;
    matrices and cell windows on demand.

    ``codes`` holds the code (_codes) of each element in the code dtype
    (_code_dtype), as _group_codes lists them, ascending, so
    element i is the same whichever generators listed the group, and
    ``rows(indices)`` decodes only those elements.
    ``unipotent`` holds the indices of the unipotent elements, ascending,
    ``types`` their distinct Jordan types, and ``type_index`` for each of
    them the index of its type in ``types``.  ``mats``, the whole (N, n, n)
    stack of residues in the code dtype (_decode, as ``rows`` gives them),
    and ``unipotent_types``, which maps the index
    of each unipotent element to its Jordan type, are views built on first
    read.  ``windows_of(indices)`` gives the (signed, for Sp) window of the
    Bruhat cell of each given element, and ``cell_windows[i]`` that of
    element i, all of them computed on first read.
    """

    def __init__(self, kind: GroupKind, q: int, codes: np.ndarray, unipotent: np.ndarray,
                 types: list[Partition], type_index: np.ndarray):
        self.kind = kind
        self.q = q
        self.codes = codes
        self.unipotent = unipotent
        self.types = types
        self.type_index = type_index

    def __len__(self):
        return len(self.codes)

    def rows(self, indices) -> np.ndarray:
        """The (k, n, n) stack of the elements with these indices."""
        return _decode(self.codes[np.asarray(indices, dtype=np.int64)], self.q, self.kind.n)

    @functools.cached_property
    def mats(self) -> np.ndarray:
        return _decode(self.codes, self.q, self.kind.n)

    @functools.cached_property
    def unipotent_types(self) -> dict[int, Partition]:
        return dict(zip(self.unipotent.tolist(), (self.types[i] for i in self.type_index.tolist())))

    def matrix(self, i: int) -> ExactMatrix:
        return ExactMatrix(GF(self.q), self.rows([i])[0].tolist())

    def unipotent_count(self) -> int:
        return len(self.unipotent)

    def windows_of(self, indices) -> list[tuple[int, ...]]:
        """The cell window of each element with these indices, one kernel
        call (_cell_windows) per _CHUNK of them."""
        indices = np.asarray(indices, dtype=np.int64)
        windows = []
        for start in range(0, len(indices), _CHUNK):
            windows += _cell_windows(self.kind, self.rows(indices[start:start + _CHUNK]), self.q)
        return windows

    @functools.cached_property
    def cell_windows(self) -> list[tuple[int, ...]]:
        return self.windows_of(np.arange(len(self)))

    def types_by_window(self) -> dict[tuple[int, ...], set[Partition]]:
        """The Jordan types of the unipotent elements of each cell met, by
        window.  Only the unipotent elements are decoded and windowed, one
        kernel call (_distinct_cell_windows) per _CHUNK of them, and each
        distinct (window, type) pair is found by one np.bincount."""
        met: dict[tuple[int, ...], set[Partition]] = {}
        width = len(self.types)
        for start in range(0, len(self.unipotent), _CHUNK):
            windows, inverse = _distinct_cell_windows(
                self.kind, self.rows(self.unipotent[start:start + _CHUNK]), self.q)
            pairs = np.bincount(inverse * width + self.type_index[start:start + _CHUNK],
                                minlength=len(windows) * width)
            for pair in np.flatnonzero(pairs).tolist():
                met.setdefault(windows[pair // width], set()).add(self.types[pair % width])
        return met


def enumerate_group(kind: GroupKind, q: int, budget: int = DEFAULT_ENUM_BUDGET) -> FiniteGroupTable:
    """BFS the whole group and find and type its unipotent elements; the
    table keeps the codes, ascending, and matrices and cell windows are
    left to FiniteGroupTable, which decodes and computes them on demand.

    The closure is told the order from the closed formula, which sizes its
    seen-map (_group_codes).  The element count must reproduce the formula
    exactly; a mismatch is an integrity failure, not a warning.  The
    unipotent elements of each Jordan type must be as many as its classes
    have (_check_type_census).
    """
    _check_prime(q)
    expected = kind.order(q)
    check_budget(expected, budget, f"{kind} over GF({q}) has {expected} elements")
    codes = _group_codes(group_generators(kind, q), q, budget, order=expected)
    if len(codes) != expected:
        raise IntegrityError(f"enumerated {len(codes)} elements of {kind}/GF({q}), formula gives {expected}")
    unipotent, stack = _table_unipotents(kind, codes, q)
    types, inverse = _distinct_jordan_types(stack, q)
    counts = np.bincount(inverse, minlength=len(types)).tolist()
    _check_type_census(kind, q, Counter(dict(zip(types, counts))))
    return FiniteGroupTable(kind, q, codes, unipotent, types, inverse)


def _table_unipotents(kind: GroupKind, codes: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the unipotent elements of the group among these codes,
    ascending, and the (k, n, n) stack of them in the code dtype.  Per
    _TRACE_CHUNK of codes, the traces are read off the codes (_code_traces),
    and only the elements with trace n mod p, as every unipotent element
    has, are decoded, entry-major.  The walk's other coefficient tests
    (_coefficient_tests, _ek_survivors, with the identity for w_rep) run on
    those; the power test (_unipotent_mask) decides their survivors only
    where the coefficients tested leave one undecided: for SL_3(F_5) the
    trace and e2 decide."""
    n = kind.n
    ks, power = _coefficient_tests(kind, walk=False)
    identity = np.arange(n), np.ones(n, dtype=np.int64)
    unipotent, stacks = [], []
    for start in range(0, len(codes), _TRACE_CHUNK):
        chunk = codes[start:start + _TRACE_CHUNK]
        passed = np.flatnonzero(_code_traces(chunk, q, n) == n % q)
        entries = _decode(chunk[passed], q, n).transpose(1, 2, 0)
        passed, entries = _ek_survivors(entries, *identity, q, ks[1:], passed)
        batch = entries.transpose(2, 0, 1)
        if power:
            mask = _unipotent_mask(batch, q)
            passed, batch = passed[mask], batch[mask]
        unipotent.append(start + passed)
        stacks.append(batch)
    return np.concatenate(unipotent), np.concatenate(stacks)


def _column_pivots(stack: np.ndarray, p: int) -> np.ndarray:
    """The pivot row of each column of each matrix in a (B, n, n) stack mod p.

    Columns are reduced left to right; the pivot of a column is its lowest
    nonzero entry in a row no earlier column used, or -1 where there is none.
    The pivot row is then cleared to the right by col' = pivot * col' -
    col'[r] * col: a column operation of B times a nonzero column scaling,
    which leaves the pivot pattern alone and needs no inverse.  Entries stay
    below p^2, exact in int64 for p < _MAX_NUMPY_PRIME.  For an invertible
    matrix pivots + 1 is its Bruhat cell window; the number of pivots is the
    rank of any matrix.

    The stack is copied once batch-last, to (n, n, B) int64, so that each
    step works on contiguous rows of B entries, one per matrix; the pivots
    come back as a (B, n) array.
    """
    count, n = stack.shape[:2]
    a = _mod(stack.transpose(1, 2, 0).astype(np.int64, order="C"), p)
    batch = np.arange(count)
    used = np.zeros((n, count), dtype=bool)
    pivots = np.full((n, count), -1, dtype=np.int64)
    for j in range(n):
        col = a[:, j]
        free = (col != 0) & ~used
        found = free.any(axis=0)
        r = n - 1 - np.argmax(free[::-1], axis=0)
        pivots[j] = np.where(found, r, -1)
        used[r[found], batch[found]] = True
        # a column without a pivot is zero outside used rows: leave the rest alone
        pivot = np.where(found, col[r, batch], 1)
        factor = np.where(found, a[r, j + 1:, batch].T, 0)
        right = a[:, j + 1:]
        right *= pivot
        right -= col[:, None] * factor
        _mod(right, p)
    return pivots.T


def _cell_windows(kind: GroupKind, stack: np.ndarray, q: int) -> list[tuple[int, ...]]:
    """The Bruhat cell window of each matrix in the stack (signed for Sp)."""
    windows, inverse = _distinct_cell_windows(kind, stack, q)
    return [windows[i] for i in inverse.tolist()]


def _distinct_cell_windows(kind: GroupKind, stack: np.ndarray, q: int
                           ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct Bruhat cell windows of the matrices in a stack (signed
    for Sp), and for each matrix the index of its window among them, from
    one kernel call."""
    pivots = _column_pivots(stack, q)
    if (pivots < 0).any():
        raise SingularMatrixError("a singular matrix: some column has no unused nonzero pivot")
    distinct, inverse = _distinct_rows(pivots + 1)
    windows = [tuple(w) for w in distinct.tolist()]
    if kind.family == "Sp":
        windows = [symplectic_signed_window(w) for w in windows]
    return windows, inverse


def _jordan_types_mod_p(stack: np.ndarray, p: int) -> list[Partition]:
    """The Jordan type of each unipotent matrix in a (B, n, n) stack mod p."""
    types, inverse = _distinct_jordan_types(stack, p)
    return [types[i] for i in inverse.tolist()]


def _distinct_jordan_types(stack: np.ndarray, p: int) -> tuple[list[Partition], np.ndarray]:
    """The distinct Jordan types of the unipotent matrices in a (B, n, n)
    stack mod p, and for each matrix the index of its type among them.

    With N = g - 1, the types are read off the ranks of N^k for k = 1..n-1,
    _JORDAN_CHUNK matrices and one power at a time, so that besides the
    ranks only one batch of N, one power and its batch-last copy are alive.
    The ranks of N^k for k < n - 1 take one kernel call (_column_pivots)
    each.  N^(n-1) of a nilpotent N has rank 1 when N is one Jordan block
    and 0 otherwise, so its rank is whether it is nonzero.  N^n = 0 is
    checked by one more product, which never enters the kernel; a matrix
    that fails it is not unipotent and raises ValueError.  One Partition is
    built per distinct rank sequence, once all the ranks are in."""
    count, n = stack.shape[:2]
    ranks = np.empty((count, n - 1), dtype=np.int64)
    for start in range(0, count, _JORDAN_CHUNK):
        nil = _mod(stack[start:start + _JORDAN_CHUNK] - np.eye(n, dtype=np.int64), p)
        block = ranks[start:start + _JORDAN_CHUNK]
        power = nil
        for k in range(n - 1):
            if k < n - 2:
                block[:, k] = (_column_pivots(power, p) >= 0).sum(axis=1)
            else:
                block[:, k] = power.any(axis=(1, 2))
            power = _mod(power @ nil, p)
        if power.any():
            raise ValueError("matrix is not unipotent mod p")
    distinct, inverse = _distinct_rows(ranks)
    types = [Partition(a - b for a, b in zip([n] + row, row + [0]) if a != b).conjugate()
             for row in distinct.tolist()]
    return types, inverse


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (B, n) array with entries in 0..n, in
    lexicographic order, and for each row the index of its distinct row.

    Each row is read as one base-(n + 1) integer, so a 1-D np.unique does the
    work.  The code is exact in int64 for every n the budgets admit:
    (n + 1)^n < 2^63 holds up to n = 15.
    """
    n = rows.shape[1]
    codes = rows @ (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return rows[first], inverse


def jordan_type(g: ExactMatrix) -> Partition:
    """Jordan type of a unipotent matrix: part k appears as often as the
    rank sequence of (g - 1)^j prescribes.  Raises on non-unipotent input."""
    if not g.is_square():
        raise ValueError("Jordan type needs a square matrix")
    n = g.rows
    nil = g - ExactMatrix.identity(g.field, n)
    power = nil
    for _ in range(n - 1):
        power = power * nil
    if any(x != g.field.zero for row in power.entries for x in row):
        raise ValueError("matrix is not unipotent: (g - 1)^n != 0")
    ranks = [n]
    power = nil
    while ranks[-1] > 0:
        ranks.append(power.rank())
        power = power * nil
    diffs = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return Partition(d for d in diffs if d).conjugate()


def _check_prime(q: int):
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q >= _MAX_NUMPY_PRIME:
        raise ValueError(f"q = {q} is too large for the exact int64 fast paths")


def _admit(kind: GroupKind, q: int, allow_bad_prime: bool) -> bool:
    """Check q for a verification driver: it must be a prime the fast paths
    take, and a bad prime of the kind only with ``allow_bad_prime``.
    Returns whether q is bad, the report's advisory flag."""
    _check_prime(q)
    advisory = q in kind.bad_primes
    if advisory and not allow_bad_prime:
        raise ValueError(f"q = {q} is a bad prime for {kind}; pass allow_bad_prime to explore anyway")
    return advisory


# ---------------------------------------------------------------------------
# Root subgroups, Borel and cell grids (numpy)
#
# A root is a tuple of entry positions (row, col, coeff), 0-based: x_a(t) is
# the identity plus t * coeff at each of them.  GL and SL use one position
# per root, Sp the positions of cells.c_root_positions; a negative root is
# the same positions transposed.

def _roots(kind: GroupKind) -> list[tuple]:
    """The positive roots of the group, in the order the grids multiply them."""
    if kind.family == "Sp":
        m = kind.n // 2
        return [tuple(c_root_positions(root, m)) for root in c_positive_roots(m)]
    return [((i, j, 1),) for i in range(kind.n) for j in range(i + 1, kind.n)]


def _simple_roots(kind: GroupKind) -> list[tuple]:
    """The simple roots, in _roots order: those whose first position is
    next to the diagonal."""
    return [root for root in _roots(kind) if root[0][1] == root[0][0] + 1]


def _negative(root: tuple) -> tuple:
    return tuple((c, r, v) for r, c, v in root)


def _root_family(n: int, root: tuple, q: int) -> np.ndarray:
    """The (q, n, n) stack of x_root(t) for t = 0..q-1."""
    family = np.tile(np.eye(n, dtype=np.int64), (q, 1, 1))
    t = np.arange(q, dtype=np.int64)
    for r, c, v in root:
        family[:, r, c] = t * v % q
    return family


def _torus(kind: GroupKind, q: int) -> np.ndarray:
    """The diagonal elements of the group: all of them for GL, those of det 1
    for SL, and diag(d, reversed(d)^-1) for Sp."""
    n = kind.n
    if kind.family == "Sp":
        diags = [d + tuple(pow(x, -1, q) for x in reversed(d))
                 for d in itertools.product(range(1, q), repeat=n // 2)]
    else:
        diags = [d for d in itertools.product(range(1, q), repeat=n)
                 if kind.family == "GL" or math.prod(d) % q == 1]
    torus = np.zeros((len(diags), n, n), dtype=np.int64)
    torus[:, np.arange(n), np.arange(n)] = diags
    return torus


def borel_grid(kind: GroupKind, q: int) -> np.ndarray:
    """Every element of B(F_q) for this group, each exactly once: the torus
    times the product of the positive root subgroups.  Each call builds the
    grid anew and keeps nothing; a driver builds one per prime, after its
    budget checks, and passes it down.

    The grid is stored entry-major, as an (n, n, |B|) array in the narrowest
    signed dtype that holds q - 1 (int8 for q < 128), and returned as its
    transpose(2, 0, 1) view: element i is grid[i], and entry (r, c) of every
    element, grid[:, r, c], is one contiguous row (_slice_unipotents).  It
    is built root by root: x_root(t) adds t * v times column r to column c
    for each position (r, c, v), t running fastest, in the order of
    grid[:, None] @ family[None].  Each row of a column is updated in a
    dtype wide enough for the sum and reduced, so no int64 (|B|, n, n)
    array is ever built."""
    n = kind.n
    dtype = _signed_dtype(q - 1)
    # x + t * y for residues x, y and t
    wide = _signed_dtype(q * (q - 1))
    grid = np.ascontiguousarray(_torus(kind, q).transpose(1, 2, 0), dtype=dtype)
    for root in _roots(kind):
        new = np.empty(grid.shape + (q,), dtype=dtype)
        new[...] = grid[..., None]
        for r, c, v in root:
            shift = np.arange(q, dtype=wide) * v % q
            # column r of an upper triangular matrix is zero below row r
            for i in range(r + 1):
                row = grid[i, r, :, None] * shift
                row += new[i, c]
                new[i, c] = _mod(row, q)
        grid = new.reshape(n, n, -1)
    expected = kind.borel_order(q)
    if grid.shape[2] != expected:
        raise IntegrityError(f"Borel grid of {kind}/GF({q}) has {grid.shape[2]} != {expected} elements")
    return grid.transpose(2, 0, 1)


def _weyl_rep(kind: GroupKind, w, q: int) -> np.ndarray:
    """The representative of w in the group: the 0/1 permutation matrix for
    GL, the same with column 0 negated for odd length in SL (det 1), and the
    J-compatible signed monomial matrix for Sp."""
    if w.spec != kind.weyl_spec:
        raise ValueError(f"{w} indexes cells of {w.spec}, not of {kind}")
    n = kind.n
    if kind.family == "Sp":
        return _np(sp_weyl_matrix(w, GF(q)))
    rep = np.zeros((n, n), dtype=np.int64)
    rep[np.array(w.window) - 1, np.arange(n)] = 1
    if kind.family == "SL" and w.length() % 2:
        # det(rep) = sign(w) = -1: negate column 0
        rep[w.window[0] - 1, 0] = q - 1
    return rep


def _monomial(rep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, s) with row i of the monomial matrix rep equal to s_i e_{c_i}, so
    that rep @ b is b[c] * s[:, None]; a rep that is not monomial is an
    integrity failure."""
    n = len(rep)
    cols = np.argmax(rep != 0, axis=1)
    if ((rep != 0).sum(axis=1) != 1).any() or len(set(cols.tolist())) != n:
        raise IntegrityError(f"Weyl representative {rep.tolist()} is not monomial")
    return cols, rep[np.arange(n), cols]


def _parity(perm) -> int:
    """The parity of a permutation given as a sequence: 1 when it has an odd
    number of inversions."""
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2


def _unipotent_mask(batch: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of a (k, n, n) stack are unipotent mod p: the power
    test (g - 1)^n = 0 mod p, exact on any input.  The walk and the table
    run it only where their coefficient tests leave unipotence undecided
    (_coefficient_tests), and hand it only those tests' survivors."""
    n = batch.shape[1]
    power = _mod(batch - np.eye(n, dtype=np.int64), p)
    # squared until the exponent 2^k is at least n
    for _ in range(max(1, (n - 1).bit_length())):
        power = _mod(power @ power, p)
    return (power == 0).all(axis=(1, 2))


def _coefficient_tests(kind: GroupKind, walk: bool) -> tuple[range, bool]:
    """The k <= 3 whose test e_k = C(n, k) mod p a unipotent search runs
    (_ek_mask), and whether the power test must follow.  g is unipotent
    exactly when its characteristic polynomial is (x - 1)^n, that is when
    e_k(g) = C(n, k) mod p for every k, and fewer k decide in each family:
    e_1..e_(n-1) in SL, where det = 1 fixes e_n; e_1..e_(n/2) in Sp, whose
    polynomial is palindromic; e_1..e_n in GL, where the walk reads e_n =
    det(w_rep) prod_i b_ii off the grid's diagonal rows (_det_mask).  So
    the power test runs for SL_n and GL_n with n >= 5, Sp_2m with m >= 4,
    and the GL_n tables with n >= 4."""
    n = kind.n
    top = {"SL": n - 1, "Sp": n // 2, "GL": n - 1 if walk else n}[kind.family]
    return range(1, min(top, 3) + 1), top > 3


def _slice_unipotents(kind: GroupKind, w, q: int, borel: np.ndarray):
    """Per _CHUNK batch of the Borel grid ``borel`` (borel_grid(kind, q)):
    the unipotent elements of the slice w_rep * B of the cell of w, in grid
    order, as an int64 (k, n, n) stack of residues.  The caller has checked
    the prime and the grid's budget.

    w_rep is monomial, row i being s_i e_{c_i} with s_i = +-1, so w_rep b is
    the rows c of b scaled by s.  The coefficient tests (_coefficient_tests)
    run on the grid's contiguous entry rows (borel_grid) before any matrix
    is gathered, each on the survivors of the last (_ek_survivors): first
    the trace, a signed sum of n rows of the batch, then for GL the
    determinant (_det_mask), then e2 and e3 where they are needed, in the
    narrow dtypes of _ek_mask.  Only their survivors are gathered into int64
    products, in grid order; the power test (_unipotent_mask) decides them
    only where the coefficients leave unipotence undecided."""
    cols, signs = _monomial(_weyl_rep(kind, w, q))
    ks, power = _coefficient_tests(kind, walk=True)
    entries = borel.transpose(1, 2, 0)
    for start in range(0, len(borel), _CHUNK):
        b = _ek_survivors(entries[:, :, start:start + _CHUNK], cols, signs, q, ks[:1])[1]
        if kind.family == "GL":
            b = np.compress(_det_mask(b, cols, signs, q), b, axis=2)
        b = _ek_survivors(b, cols, signs, q, ks[1:])[1]
        batch = np.ascontiguousarray(b[cols].transpose(2, 0, 1), dtype=np.int64)
        batch *= signs[:, None]
        batch = _mod(batch, q)
        yield batch[_unipotent_mask(batch, q)] if power else batch


def _ek_survivors(b: np.ndarray, cols: np.ndarray, signs: np.ndarray, q: int, ks,
                  index: np.ndarray | None = None) -> tuple[np.ndarray | None, np.ndarray]:
    """The matrices b of an entry-major (n, n, m) array that pass the test
    e_k(w_rep b) = C(n, k) mod q for each k in ``ks`` (_ek_mask), gathered
    entry-major, and the entries of ``index`` that belong to them: each test
    runs on the last one's survivors alone, on contiguous rows.  (b[:, :,
    keep] would gather them element-major, and e3 on its strided rows took
    29 ms against 2.3 ms on the 39,366 e2 survivors of one Sp_6(F_3) slice.)"""
    for k in ks:
        keep = np.flatnonzero(_ek_mask(b, cols, signs, q, k))
        b = np.take(b, keep, axis=2)
        if index is not None:
            index = index[keep]
    return index, b


def _ek_mask(b: np.ndarray, cols: np.ndarray, signs: np.ndarray, q: int, k: int) -> np.ndarray:
    """Which matrices b of an entry-major (n, n, m) array of residues have
    e_k(w_rep b) = C(n, k) mod q, where e_k is the sum of the principal
    k x k minors and row i of the monomial w_rep is s_i e_{c_i} with
    s_i = +-1: a grid slice's w_rep (_slice_unipotents), or the identity
    for the table's decoded elements (_table_unipotents).  Rows S of w_rep b
    are the rows c_S of b scaled by s_S, so

        e_k(w_rep b) = sum over k-subsets S of prod_{i in S} s_i det b[c_S, S],

    each minor by Leibniz's expansion.  k = 1 is the trace and k = 2 the
    sum of s_i s_j (b[c_i,i] b[c_j,j] - b[c_i,j] b[c_j,i]).

    The sum, less C(n, k), is taken in the narrowest dtype that holds it:
    each minor lies within ceil(k!/2) (q - 1)^k of 0, so the sum, and each
    partial sum, lies within C(n, k) (ceil(k!/2) (q - 1)^k + 1), and its
    reduction (_mod) goes below that by less than q.  For e2 that is int8
    for SL_4(F_5) and Sp_6(F_3), and for e3 int16.  The trace adds the rows
    themselves; for k > 1 the rows are widened first, once."""
    n = len(cols)
    terms = [(perm, _parity(perm)) for perm in itertools.permutations(range(k))]
    dtype = _signed_dtype(math.comb(n, k) * (-(-math.factorial(k) // 2) * (q - 1) ** k + 1) + q)
    if k > 1:
        b = b.astype(dtype, copy=False)
    e = np.full(b.shape[2], -math.comb(n, k), dtype=dtype)
    for rows in itertools.combinations(range(n), k):
        negated = sum(signs[i] != 1 for i in rows)
        for perm, odd in terms:
            term = b[cols[rows[0]], rows[perm[0]]]
            for i, j in zip(rows[1:], perm[1:]):
                term = term * b[cols[i], rows[j]]
            (np.subtract if (negated + odd) % 2 else np.add)(e, term, out=e)
    return _mod(e, q) == 0


def _det_mask(b: np.ndarray, cols: np.ndarray, signs: np.ndarray, q: int) -> np.ndarray:
    """Which upper triangular matrices b of an entry-major (n, n, m) array
    have det(w_rep b) = det(w_rep) prod_i b[i, i] = 1 mod q, with w_rep as in
    _ek_mask: the diagonal rows are multiplied with a reduction after each
    product, in the narrowest dtype that holds (q - 1)^2."""
    negated = (_parity(cols) + sum(s != 1 for s in signs)) % 2
    dtype = _signed_dtype((q - 1) ** 2)
    det = b[0, 0].astype(dtype)
    for i in range(1, len(cols)):
        det = _mod(det * b[i, i], q)
    return det == (-1 if negated else 1) % q


# ---------------------------------------------------------------------------
# orbits and centralizers


def _inv_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    return _np(ExactMatrix(GF(p), mat.tolist()).inverse())


def _upper_inverse_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of each invertible upper triangular matrix in a
    (k, n, n) stack, as an int64 stack, by back substitution over the whole
    batch: row i of the inverse X is d_i^-1 (e_i - sum_{j > i} b[i, j] X[j]),
    from the last row up.  _inv_mod_p is its oracle in the tests."""
    b = stack.astype(np.int64) % p
    count, n = b.shape[:2]
    inverse = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        row = -(b[:, i, None, i + 1:] @ inverse[:, i + 1:])[:, 0]
        row[:, i] += 1
        pivots = [pow(d, -1, p) for d in b[:, i, i].tolist()]
        inverse[:, i] = row * np.array(pivots, dtype=np.int64)[:, None] % p
    return inverse


def conjugation_orbit(start: np.ndarray, gens: list[np.ndarray], p: int,
                      limit: int | None = None) -> np.ndarray:
    """The orbit of a matrix under conjugation by the group the generators
    produce (closure under the generators alone suffices in a finite group),
    as the 1-D int64 codes (_codes) of its elements, ascending.  Breadth
    first: each level is the conjugates of the last not yet seen, and the
    seen codes are kept as a sorted array (_fresh_in_sorted).  Holding more
    than ``limit`` elements raises BudgetError."""
    n = len(start)
    pairs = [(g, _inv_mod_p(g, p)) for g in gens]
    level = seen = _codes((start % p)[None], p)
    while len(level):
        if limit is not None:
            check_budget(len(seen), limit, f"conjugation orbit reached {len(seen)} elements")
        images = np.concatenate([np.empty(0, dtype=np.int64), *_conjugates(level, pairs, p, n)])
        level, seen = _fresh_in_sorted(images, seen)
    return seen


def centralizer_order(kind: GroupKind, q: int, orbit: np.ndarray) -> int:
    """|Z_G(g)(F_q)| by orbit-stabilizer, from the conjugation orbit of g:
    group order over class size."""
    return _cofactor(kind.order(q), f"|{kind}(F_{q})|", len(orbit), "orbit size")


def _cofactor(order: int, name: str, part: int, what: str) -> int:
    """order / part, where ``name`` names the group of that order; a part
    that does not divide the order is an integrity failure."""
    if order % part:
        raise IntegrityError(f"{what} {part} does not divide {name} = {order}")
    return order // part


def _commutant(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """A basis, as a (k, n, n) stack, of the X with X a = b X mod p: the
    nullspace of X -> X a - b X, which on the entries of X read row by row
    is kron(1, a^T) - kron(b, 1), one n^2 x n^2 matrix."""
    n = len(a)
    eye = np.eye(n, dtype=np.int64)
    system = np.kron(eye, a.T) - np.kron(b, eye)
    basis = GF(p).nullspace(system.tolist())
    return np.array(basis, dtype=np.int64).reshape(-1, n, n)


def _group_span(kind: GroupKind, q: int, basis: np.ndarray):
    """Per _CHUNK batch of combinations of a (k, n, n) basis mod q, the ones
    in G: X^T J X = J for Sp, det 1 for SL."""
    k, n = basis.shape[:2]
    flat = basis.reshape(k, n * n)
    powers = q ** np.arange(k, dtype=np.int64)
    form = _np(symplectic_form(GF(q), n // 2)) if kind.family == "Sp" else None
    for start in range(0, q ** k, _CHUNK):
        digits = np.arange(start, min(start + _CHUNK, q ** k), dtype=np.int64)[:, None]
        batch = ((digits // powers % q) @ flat % q).reshape(-1, n, n)
        if form is not None:
            keep = ((batch.transpose(0, 2, 1) @ form % q) @ batch % q == form).all(axis=(1, 2))
        else:
            # e_n is the determinant, and C(n, n) = 1
            keep = _ek_mask(batch.transpose(1, 2, 0), np.arange(n), np.ones(n, dtype=np.int64),
                            q, n)
        yield batch[keep]


def _class_by_orbit(kind: GroupKind, q: int, rep: np.ndarray, limit: int | None = None):
    """|Z_G(rep)| and a membership test for the G(F_q)-class of rep, from
    the class itself, grown by BFS; the limit bounds its size."""
    orbit = conjugation_orbit(rep, group_generators(kind, q), q, limit=limit)
    return centralizer_order(kind, q, orbit), lambda b: bool(_found(orbit, _codes(b[None], q))[0])


def _class_by_commutant(kind: GroupKind, q: int, rep: np.ndarray, basis: np.ndarray):
    """The same from the commutant of rep, whose basis is given: Z_G(rep)
    is the elements of G among its q^k members.  b is in the class of rep
    when some X in G solves X rep = b X; such b is GL-conjugate to rep, so
    the solutions have dimension k too, and the search stops at the first
    batch with a hit."""
    zg = sum(len(batch) for batch in _group_span(kind, q, basis))
    _cofactor(kind.order(q), f"|{kind}(F_{q})|", zg, "centralizer order")

    def same_class(b):
        solutions = _commutant(rep, b, q)
        return len(solutions) == len(basis) and any(
            len(batch) for batch in _group_span(kind, q, solutions))

    return zg, same_class


def _sp_class_key(u: np.ndarray, q: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The invariants that name the Sp_n(F_q)-class of a unipotent u, q odd
    (Wall): its Jordan type, and for each even part size i, the Legendre
    symbol of the discriminant of a symmetric form on that part's
    multiplicity space.

    The Cayley transform e = (u - 1)(u + 1)^-1 is nilpotent, in sp, of the
    Jordan type of u, and conjugating u conjugates e.  On ker e^i the form
    <x, e^(i-1) y> (with <x, y> = x^T J y) is symmetric for even i, and its
    radical there is ker e^(i-1) + e ker e^(i+1); on a complement of the
    radical, of dimension m_i (the number of parts i), it is nondegenerate,
    and the class of its Gram determinant mod squares names its isometry
    class.  Returns (parts, ((i, symbol), ...)), the parts decreasing."""
    n = len(u)
    field = GF(q)
    eye = np.eye(n, dtype=np.int64)
    e = (u - eye) @ _inv_mod_p((u + eye) % q, q) % q
    powers = [eye]
    while powers[-1].any():
        if len(powers) > n:
            raise IntegrityError(f"a class representative over GF({q}) is not unipotent")
        powers.append(powers[-1] @ e % q)
    powers.append(powers[-1])  # e^(h+1) = 0 too, h the largest part
    kernels = [field.nullspace(power.tolist()) for power in powers]
    # m_i = (parts >= i) - (parts >= i + 1), parts >= i = dim ker e^i - dim ker e^(i-1)
    mult = {i: 2 * len(kernels[i]) - len(kernels[i - 1]) - len(kernels[i + 1])
            for i in range(1, len(powers) - 1)}
    form = _np(symplectic_form(field, n // 2))
    symbols = []
    for i, m in mult.items():
        if i % 2 or not m:
            continue
        radical = kernels[i - 1] + (np.array(kernels[i + 1]) @ e.T % q).tolist()
        candidates = radical + kernels[i]
        # the pivot columns of the candidates as columns: each one independent
        # of those before it, so the pivots past the radical span a complement
        pivots = field.echelon(np.array(candidates).T.tolist())[2]
        complement = np.array([candidates[c] for c in pivots if c >= len(radical)])
        gram = (complement @ form % q) @ (powers[i - 1] @ complement.T % q) % q
        det = field.echelon(gram.tolist())[1]
        if len(complement) != m or not det:
            raise IntegrityError(f"the form of part size {i} over GF({q}) is degenerate")
        symbols.append((i, 1 if pow(det, (q - 1) // 2, q) == 1 else -1))
    parts = tuple(i for i in sorted(mult, reverse=True) for _ in range(mult[i]))
    return parts, tuple(symbols)


def _sp_order(n: int, q: int) -> int:
    """|Sp_n(F_q)| for even n >= 0."""
    k = n // 2
    return q ** (k * k) * math.prod(q ** (2 * j) - 1 for j in range(1, k + 1))


def _sp_centralizer_order(parts: tuple[int, ...], symbols: tuple[tuple[int, int], ...],
                          q: int) -> int:
    """|Z_G(u)(F_q)| of a unipotent u of Sp(F_q), q odd, from its class key
    (_sp_class_key): q^(dim Z - dim R) |R(F_q)|, where dim Z = 1/2 sum_j
    λ'_j^2 + 1/2 #{odd parts} (Collingwood-McGovern, Cor. 6.1.4) and R =
    prod_{i odd} Sp_{m_i} x prod_{i even} O_{m_i} is its reductive part."""
    mult = Counter(parts)
    dim_z = (sum(x * x for x in Partition(parts).conjugate()) + sum(x % 2 for x in parts)) // 2
    dim_r, order = 0, 1
    for i in mult:
        if i % 2:
            dim_r += mult[i] * (mult[i] + 1) // 2
            order *= _sp_order(mult[i], q)
    for i, symbol in symbols:
        dim_r += mult[i] * (mult[i] - 1) // 2
        order *= _orthogonal_order(mult[i], symbol, q)
    return q ** (dim_z - dim_r) * order


def _orthogonal_order(m: int, symbol: int, q: int) -> int:
    """|O(Q)(F_q)| for a nondegenerate quadratic form Q in m >= 1 variables,
    q odd, whose Gram determinant has this Legendre symbol: O^+ (split) when
    (-1)^(m/2) times the determinant is a square, for even m; odd m has one
    order."""
    k = m // 2
    if m % 2:
        return 2 * _sp_order(m - 1, q)
    minus_one = 1 if q % 4 == 1 else -1  # the Legendre symbol of -1
    return 2 * q ** (k - 1) * (q ** k - symbol * minus_one ** k) * _sp_order(m - 2, q)


def _sp_class_keys_of_type(jt: Partition) -> list[tuple]:
    """The keys (_sp_class_key) of the Sp(F_q)-classes of unipotent type jt,
    q odd: both symbols for each even part size, none unless jt is
    symplectic."""
    if not is_symplectic_partition(jt):
        return []
    even = sorted({i for i in jt.parts if i % 2 == 0})
    return [(jt.parts, tuple(zip(even, signs)))
            for signs in itertools.product((1, -1), repeat=len(even))]


def borel_centralizer_order(kind: GroupKind, q: int, g: np.ndarray) -> int:
    """|Z_B(g)(F_q)| by a direct commuting scan over the Borel grid, one
    _CHUNK batch at a time.  scan_property_d reads |Z_B| off the B_w-orbits
    instead; this scan is the oracle the tests hold it to."""
    borel = borel_grid(kind, q)
    count = 0
    for start in range(0, len(borel), _CHUNK):
        batch = np.ascontiguousarray(borel[start:start + _CHUNK], dtype=np.int64)
        count += int((batch @ g % q == g @ batch % q).all(axis=(1, 2)).sum())
    return count


def borel_generators(kind: GroupKind, q: int) -> list[np.ndarray]:
    """Generators of B(F_q): torus generators, then x_b(1) for every positive
    root b in _roots order.  The simple root elements alone do not suffice
    at q = 2, where the torus is trivial: in Sp_4(F_2) they give 8 of 16."""
    n = kind.n
    gens = []
    if q > 2:
        gamma = _primitive_root(q)
        # gamma at i, and gamma^-1 at j where the group needs it
        slots = {"GL": [(i, None) for i in range(n)],
                 "SL": [(i, i + 1) for i in range(n - 1)],
                 "Sp": [(i, n - 1 - i) for i in range(n // 2)]}[kind.family]
        for i, j in slots:
            t = np.eye(n, dtype=np.int64)
            t[i, i] = gamma
            if j is not None:
                t[j, j] = pow(gamma, -1, q)
            gens.append(t)
    return gens + [_root_family(n, root, q)[1] for root in _roots(kind)]


def _slice_borel_generators(kind: GroupKind, w, q: int) -> list[np.ndarray]:
    """Generators of B_w = B ∩ w_rep B w_rep^-1: the generators x of B with
    w_rep^-1 x w_rep = w_rep^T x w_rep upper triangular, which every torus
    generator is."""
    rep = _weyl_rep(kind, w, q)
    return [x for x in borel_generators(kind, q) if not np.tril(rep.T @ x @ rep % q, -1).any()]


def _partition_into_orbits(members: np.ndarray, gens: list[np.ndarray],
                           p: int) -> list[np.ndarray]:
    """Split a conjugation-stable (k, n, n) stack into orbits under the
    generated group, as one 1-D code array (_codes) per orbit, ascending,
    the orbits in order of their least code.  With no generators every
    matrix is its own orbit.  The members must be distinct, and a repeated
    matrix raises IntegrityError; so does a conjugate outside the set.

    No orbit is grown.  The codes are sorted, and each generator becomes a
    permutation of their indices, i -> the index of g x_i g^-1, found by
    binary search, a _CHUNK of members at a time.  Every index starts
    labelled by itself.  Each pass lowers every label to the least label
    across its moves, in both directions, and then to the label of its
    label, until no label moves.  Labels only fall, and each stays an index
    inside its own orbit, so the passes end; then the labels are constant
    along every move, so each index is labelled by the least index of its
    orbit, which is its least code.  A stable argsort of the labels groups
    the orbits."""
    n = members.shape[1]
    pairs = [(g, _inv_mod_p(g, p)) for g in gens]
    codes = np.sort(_codes(members, p))
    if (codes[1:] == codes[:-1]).any():
        raise IntegrityError("a matrix is listed twice in the scanned set")
    moves = np.empty((len(pairs), len(codes)), dtype=np.int64)
    for start in range(0, len(codes), _CHUNK):
        for move, images in zip(moves, _conjugates(codes[start:start + _CHUNK], pairs, p, n)):
            at = np.searchsorted(codes, images)
            if not _found(codes, images, at).all():
                raise IntegrityError("conjugation left the scanned set")
            move[start:start + len(images)] = at
    label, last = np.arange(len(codes)), None
    while not np.array_equal(label, last):
        last, label = label, label.copy()
        for move in moves:
            np.minimum(label, label[move], out=label)
            label[move] = np.minimum(label[move], label)
        label = label[label]
    order = np.argsort(label, kind="stable")
    return np.split(codes[order], np.flatnonzero(np.diff(label[order])) + 1) if len(codes) else []


# ---------------------------------------------------------------------------
# verification drivers


_TABLE_THRESHOLD = 10**6
_SPOT_CHECKS = 20  # samples per seeded spot-check transcript


def verify_theorem_a(kind: GroupKind, q: int, *, allow_bad_prime: bool = False,
                     budget: int = DEFAULT_ENUM_BUDGET, cell_budget: int = DEFAULT_CELL_BUDGET,
                     rank_cap: int = DEFAULT_RANK_CAP, seed: int | None = None,
                     method: str = "auto") -> dict:
    """Exhaustively check the minimal-type statement for every class.

    For each class C and each minimal-length w: among the Jordan types of
    unipotent elements of the cell of w, there is a unique dominance-least
    one, it equals the image of C under the class-to-unipotent map, and it
    is the same for every w in C_min.

    Small groups are enumerated outright (method "table"); larger ones are
    checked on the slices w_rep * B of the minimal cells alone (method
    "cells"), which keeps runs like Sp_4 over GF(5) feasible.  That method
    takes one walk over all of W (_walk), scanning each slice once: every
    slice adds to the unipotent census, and the minimal ones also give their
    Jordan types and the first hit the spot checks sample.  The census
    budget and the cell budget, which bounds |B|, are checked before the
    classes are listed; then one Borel grid is built, which the walk and the
    spot checks share.  The table method checks the cell budget before it
    enumerates the group, as its spot checks build a Borel grid too.  The
    whole-group order check is reported as skipped rather than pretended.
    The report's ``ok`` covers the class matches (unless q is a bad prime),
    the integrity checks and the spot checks.
    """
    advisory = _admit(kind, q, allow_bad_prime)
    if method not in ("auto", "table", "cells"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "table" if kind.order(q) <= min(budget, _TABLE_THRESHOLD) else "cells"
    if method == "cells":
        _check_census_budget(kind, q, budget)
    _check_grid_budget(kind, q, cell_budget)
    if method == "table":
        table = enumerate_group(kind, q, budget=budget)
    classes = conjugacy_classes(kind.weyl_spec, rank_cap=rank_cap)

    # the Jordan types met in each cell, by window
    if method == "table":
        # the windows of the unipotent elements only: nothing else reads one
        type_sets = table.types_by_window()
        unipotent_count = table.unipotent_count()
        order_check = {"expected": kind.order(q), "enumerated": len(table),
                       "ok": len(table) == kind.order(q)}
    else:
        borel = borel_grid(kind, q)
        # the minimal slices only; the spot checks sample the first hit of each
        minimal = {w.window for cls in classes for w in cls.min_elements}
        unipotent_count, type_sets, first_hits = _walk(kind, q, borel, minimal)
        order_check = {"expected": kind.order(q), "enumerated": None,
                       "skipped": "cell-parametrized run, group not enumerated", "ok": True}

    class_rows = []
    all_match = True
    for cls in classes:
        image = phi(cls)
        cells = []
        minima = []
        for w in cls.min_elements:
            met = sorted(type_sets.get(w.window, ()), key=lambda p: p.parts)
            least = [m for m in met if all(dominance_leq(m, other) for other in met)]
            minimum = least[0] if len(least) == 1 else None
            minima.append(minimum)
            cells.append(
                {
                    "w": list(w.window),
                    "types_met": [t.to_json() for t in met],
                    "minimum": minimum.to_json() if minimum else None,
                    "unique_minimum": len(least) == 1,
                }
            )
        match = (
            all(m is not None for m in minima)
            and len({m.parts for m in minima}) == 1
            and minima[0] == image.jordan_type
        )
        all_match = all_match and match
        # the class columns are phimap's table row, so the class format lives there
        class_rows.append({**PhiRow(cls, image).to_json(), "cells": cells, "match": match})
    integrity = {
        "order_check": order_check,
        "unipotent_count_check": {
            "expected": q ** (2 * kind.num_positive_roots()),
            "found": unipotent_count,
            "ok": unipotent_count == q ** (2 * kind.num_positive_roots()),
        },
    }
    report = {
        "kind": str(kind),
        "q": q,
        "method": method,
        "advisory": advisory,
        "classes": class_rows,
        "all_match": all_match,
        "integrity": integrity,
    }
    checks = list(integrity.values())
    if seed is not None:
        report["spot_checks"] = (
            _spot_checks(kind, q, table, seed) if method == "table"
            else _spot_checks_from_cells(kind, q, classes, first_hits, seed, borel)
        )
        checks.append(report["spot_checks"])
    report["ok"] = (advisory or all_match) and all(c["ok"] for c in checks)
    return report


def _spot_checks(kind: GroupKind, q: int, table: FiniteGroupTable, seed: int) -> dict:
    """Seeded consistency samples: the cell is constant on B g B, and Jordan
    types are conjugation invariants.  Same seed, same transcript.  The
    Borel grid is built here; it is smaller than the enumerated group.  All
    samples are drawn first and only their rows are decoded; then the
    windows of the sampled elements and of their moves come from two kernel
    calls, and the conjugates' types from one."""
    rng = random.Random(seed)
    borel = borel_grid(kind, q)
    picked, left, right, drawn, conjugators = [], [], [], [], []
    for _ in range(_SPOT_CHECKS):
        picked.append(rng.randrange(len(table)))
        left.append(borel[rng.randrange(len(borel))])
        right.append(borel[rng.randrange(len(borel))])
        # a position in table.unipotent, which is ascending
        drawn.append(rng.randrange(len(table.unipotent)))
        conjugators.append(rng.randrange(len(table)))
    unipotent = table.unipotent[drawn]
    moved = (np.stack(left) @ table.rows(picked) % q) @ np.stack(right) % q
    conjugates = [(h @ u % q) @ _inv_mod_p(h, q) % q
                  for h, u in zip(table.rows(conjugators), table.rows(unipotent))]
    cell_ok = [a == b for a, b in zip(_cell_windows(kind, moved, q), table.windows_of(picked))]
    jt_ok = [jt == table.types[k]
             for jt, k in zip(_jordan_types_mod_p(np.stack(conjugates), q), table.type_index[drawn])]
    records = [{"element": i, "cell_stable": c, "unipotent": u, "type_stable": t}
               for i, c, u, t in zip(picked, cell_ok, unipotent.tolist(), jt_ok)]
    return {"seed": seed, "count": _SPOT_CHECKS, "records": records,
            "ok": all(cell_ok) and all(jt_ok)}


def _spot_checks_from_cells(kind: GroupKind, q: int, classes, first_hits: dict, seed: int,
                            borel: np.ndarray) -> dict:
    """Table-free spot checks for cell-parametrized runs: cells are stable
    under two-sided Borel moves (drawn from the grid ``borel``) and Jordan
    types under Borel conjugation.  The samples are the first unipotent
    element of each minimal slice that has one (``first_hits``, by window),
    in class order, then by window.  All samples are drawn first; then the
    conjugators are inverted in one batch (_upper_inverse_mod_p), the
    windows of the moved samples come from one kernel call, and the types of
    the samples and of their conjugates from one."""
    rng = random.Random(seed)
    samples = [(w.window, first_hits[w.window]) for cls in classes
               for w in cls.min_elements if w.window in first_hits]
    # each draw is a sample, two Borel moves and a Borel conjugator, in turn
    sizes = (len(samples), len(borel), len(borel), len(borel))
    at, b1, b2, h = np.array([[rng.randrange(n) for n in sizes] for _ in range(_SPOT_CHECKS)]).T
    windows = [samples[i][0] for i in at]
    picked = np.stack([samples[i][1] for i in at])
    moved = (borel[b1] @ picked % q) @ borel[b2] % q
    conjugates = (borel[h] @ picked % q) @ _upper_inverse_mod_p(borel[h], q) % q
    types = _jordan_types_mod_p(np.concatenate([picked, conjugates]), q)
    cell_ok = [a == b for a, b in zip(_cell_windows(kind, moved, q), windows)]
    jt_ok = [a == b for a, b in zip(types[:_SPOT_CHECKS], types[_SPOT_CHECKS:])]
    records = [{"w": list(window), "cell_stable": c, "type_stable": t}
               for window, c, t in zip(windows, cell_ok, jt_ok)]
    return {"seed": seed, "count": _SPOT_CHECKS, "conjugators": "borel", "records": records,
            "ok": all(cell_ok) and all(jt_ok)}


@dataclass(frozen=True)
class EllipticCellScan:
    """Property (d) data of one elliptic class and one minimal-length w, one
    entry per prime: the report's record of gamma ∩ BwB, and the sizes of the
    distinct G(F_q)-classes it meets."""

    cls: ConjugacyClass
    target: Partition
    w: WeylElement
    per_q: list[dict]
    class_sizes: list[list[int]]


@dataclass(frozen=True)
class PropertyDScan:
    """Everything ``verify_property_d`` measures, before it is judged."""

    kind: GroupKind
    qs: list[int]
    advisory: bool
    cells: list[EllipticCellScan]

    def masses(self, cell: EllipticCellScan) -> list[Fraction]:
        """The exact class mass M(q) = sum |class| / |G(F_q)| at each prime."""
        return [Fraction(sum(sizes), self.kind.order(q)) for q, sizes in zip(self.qs, cell.class_sizes)]

    def mass_exponents(self, cell: EllipticCellScan) -> list[float]:
        """log(M(q)/M(q')) / log(q'/q) for each pair of primes q < q'."""
        masses = self.masses(cell)
        return [_growth_exponent(masses[b], masses[a], self.qs[a], self.qs[b])
                for a, b in itertools.combinations(range(len(self.qs)), 2)]


def _check_two_primes(qs: list[int]):
    if len(set(qs)) < 2:
        raise ValueError("property (d) proxies need at least two primes")


def _growth_exponent(x, y, q: int, q2: int) -> float:
    """The d with y / x = (q2 / q)^d."""
    return math.log(y / x) / math.log(q2 / q)


def _classes_met(kind: GroupKind, q: int, reps: np.ndarray,
                 limit: int | None = None) -> tuple[list[int], list[int]]:
    """|Z_G(F_q)| of each unipotent representative in a (k, n, n) stack,
    and the sizes of the distinct G(F_q)-classes the representatives fall
    into, in order of their first representative.

    For Sp at odd q each representative's class is named by its invariants
    (_sp_class_key) and |Z_G| read off the closed form
    (_sp_centralizer_order); no class is built.  Otherwise each class takes
    one route, by the dimension k of the commutant of that representative:
    the commutant when q^(2k) <= |G|, so that its q^k members are no more
    than |G| / q^k <= |class|; the conjugation orbit, at most ``limit``
    elements, otherwise."""
    order = kind.order(q)
    if kind.family == "Sp" and q % 2:
        keys = [_sp_class_key(rep, q) for rep in reps]
        by_key = {key: _sp_centralizer_order(*key, q) for key in keys}
        return [by_key[key] for key in keys], [
            _cofactor(order, f"|{kind}(F_{q})|", zg, "centralizer order") for zg in by_key.values()]
    zg: list[int | None] = [None] * len(reps)
    sizes = []
    for i, rep in enumerate(reps):
        if zg[i] is not None:
            continue
        basis = _commutant(rep, rep, q)
        if q ** (2 * len(basis)) <= order:
            zg[i], same_class = _class_by_commutant(kind, q, rep, basis)
        else:
            zg[i], same_class = _class_by_orbit(kind, q, rep, limit)
        sizes.append(order // zg[i])
        for j in range(i + 1, len(reps)):
            if zg[j] is None and same_class(reps[j]):
                zg[j] = zg[i]
        # free an orbit before the next class is built
        del same_class
    return zg, sizes


def scan_property_d(kind: GroupKind, q_list: list[int], *, allow_bad_prime: bool = False,
                    cell_budget: int = DEFAULT_CELL_BUDGET, rank_cap: int = DEFAULT_RANK_CAP
                    ) -> PropertyDScan:
    """Scan gamma ∩ BwB for every elliptic class and minimal-length w at each
    prime: its B(F_q)-orbits, their centralizer orders in G and in B, and the
    G(F_q)-classes it meets.  One prime suffices here; the report compares
    two or more, and a prime given twice is scanned once.  Only gamma ∩ w_rep
    B is built, split into B_w-orbits (see the module docstring), and |Z_B|
    is |B_w| / |orbit|.  The cell budget bounds |B|, and for SL and for Sp
    at q = 2 every class that is grown by BFS (_classes_met).  Every prime
    and its |B| are checked before the classes are listed; then the primes
    are scanned in turn, each with one Borel grid that is freed before the
    next is built."""
    if kind.family == "GL":
        raise ValueError(
            "the centralizer-dimension statement is about semisimple groups; "
            "GL's one-dimensional center shifts every exponent, use sl or sp"
        )
    if not q_list:
        raise ValueError("no primes to scan")
    qs = sorted(set(q_list))
    advisory = False
    for q in qs:
        advisory = _admit(kind, q, allow_bad_prime) or advisory
        _check_grid_budget(kind, q, cell_budget)
    cells = []
    for cls in conjugacy_classes(kind.weyl_spec, rank_cap=rank_cap):
        if cls.elliptic:
            target = phi(cls).jordan_type
            cells += [EllipticCellScan(cls, target, w, [], []) for w in cls.min_elements]
    for q in qs:
        borel = borel_grid(kind, q)
        for cell in cells:
            w = cell.w
            members = np.concatenate([_of_type(hits, q, cell.target)
                                      for hits in _slice_unipotents(kind, w, q, borel)])
            orbits = _partition_into_orbits(members, _slice_borel_generators(kind, w, q), q)
            # each orbit's least member stands for it, the only row decoded
            reps = _decode(np.array([orbit[0] for orbit in orbits], dtype=np.int64), q, kind.n)
            zg, sizes = _classes_met(kind, q, reps, limit=cell_budget)
            scale = q ** w.length()
            # Z_B(x) = Z_{B_w}(x) on the slice, |B_w| = |B| / q^length(w)
            slice_borel = kind.borel_order(q) // scale
            cell.per_q.append({
                "q": q,
                "intersection_size": scale * len(members),
                "orbit_count": len(orbits),
                "orbit_sizes": sorted(scale * len(o) for o in orbits),
                "zg": sorted(zg),
                "zb": sorted(_cofactor(slice_borel, f"|B_w| of {w} in {kind}(F_{q})", len(o),
                                       "B_w-orbit size") for o in orbits),
            })
            cell.class_sizes.append(sizes)
        # free this prime's grid before the next one is built
        del borel
    return PropertyDScan(kind, qs, advisory, cells)


def _of_type(hits: np.ndarray, q: int, target: Partition) -> np.ndarray:
    """The matrices of a unipotent stack whose Jordan type is the target."""
    types, inverse = _distinct_jordan_types(hits, q)
    return hits[inverse == (types.index(target) if target in types else -1)]


def property_d_report(scan: PropertyDScan) -> dict:
    """Judge a property (d) scan: per (class, w), orbit counts and |Z_B| must
    not depend on q, and every growth exponent must round to d_C.  Each row
    also says whether the exponents are within EXPONENT_TOLERANCE of d_C."""
    qs = scan.qs
    _check_two_primes(qs)
    rows = []
    all_match = True
    for cell in scan.cells:
        cls, per_q = cell.cls, cell.per_q
        counts = {r["orbit_count"] for r in per_q}
        zb_stable = len({tuple(r["zb"]) for r in per_q}) == 1
        exponents = []
        for a, b in itertools.combinations(range(len(qs)), 2):
            # orbits paired by sorted centralizer order, the only
            # deterministic matching across independent primes
            for x, y in zip(per_q[a]["zg"], per_q[b]["zg"]):
                exponents.append(_growth_exponent(x, y, qs[a], qs[b]))
        rounds_ok = all(round(e) == cls.min_length for e in exponents)
        within_tol = all(abs(e - cls.min_length) <= EXPONENT_TOLERANCE for e in exponents)
        match = (
            len(counts) == 1
            and zb_stable
            and rounds_ok
            and all(r["orbit_count"] > 0 for r in per_q)
        )
        all_match = all_match and match
        rows.append(
            {
                "class_label": cls.label_json(),
                "d_C": cls.min_length,
                "phi": cell.target.to_json(),
                "w": list(cell.w.window),
                "per_q": per_q,
                "orbit_count_stable": len(counts) == 1,
                "zb_stable": zb_stable,
                "growth_exponents": exponents,
                "exponents_round_to_d_C": rounds_ok,
                "exponents_within_tolerance": within_tol,
                "exponent_tolerance": EXPONENT_TOLERANCE,
                "match": match,
            }
        )
    return {
        "kind": str(scan.kind),
        "qs": qs,
        "advisory": scan.advisory,
        "proxy_note": (
            "finite-orbit and centralizer-dimension statements are probed by "
            "cross-prime stability and growth exponents, not proved"
        ),
        "classes": rows,
        "all_match": all_match,
        "ok": scan.advisory or all_match,
    }


def verify_property_d(kind: GroupKind, q_list: list[int], *, allow_bad_prime: bool = False,
                      cell_budget: int = DEFAULT_CELL_BUDGET, rank_cap: int = DEFAULT_RANK_CAP
                      ) -> dict:
    """Two-prime proxies for the Borel-orbit and centralizer statements on
    elliptic classes; see the module docstring for what is actually checked."""
    _check_two_primes(q_list)
    scan = scan_property_d(kind, q_list, allow_bad_prime=allow_bad_prime, cell_budget=cell_budget,
                           rank_cap=rank_cap)
    return property_d_report(scan)


def _check_census_budget(kind: GroupKind, q: int, budget: int) -> None:
    """Raise BudgetError when the unipotent census, |W| * |B| matrices, is
    over the budget."""
    scanned = kind.weyl_spec.order() * kind.borel_order(q)
    check_budget(scanned, budget,
                 f"unipotent census of {kind}/GF({q}) scans |W| * |B| = {scanned} matrices")


def _check_grid_budget(kind: GroupKind, q: int, cell_budget: int) -> None:
    """Raise BudgetError when the Borel grid, |B| matrices, is over the cell
    budget."""
    size = kind.borel_order(q)
    check_budget(size, cell_budget, f"Borel grid of {kind}/GF({q}) holds |B| = {size} matrices")


def count_unipotents(kind: GroupKind, q: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Exact number of unipotent elements of G(F_q), without enumerating G.

    G is the disjoint union of its cells, and the cell of w holds
    q^length(w) conjugates of each unipotent element of its slice w_rep * B,
    so the census is the one walk over W (_walk) that verify_theorem_a
    takes, summed; it scans |W| * |B| grid matrices, and the budget bounds
    that number, and so |B| as well.  It is checked before the one Borel
    grid of the walk is built.  For GL and SL the walk checks the census of
    each Jordan type against its class size too.
    """
    _check_prime(q)
    _check_census_budget(kind, q, budget)
    return _walk(kind, q, borel_grid(kind, q))[0]


def _walk(kind: GroupKind, q: int, borel: np.ndarray, minimal=frozenset()
          ) -> tuple[int, dict, dict]:
    """One pass over W in window order that scans each slice w_rep * B of
    the Borel grid ``borel`` once.

    Returns the unipotent census, the sum of q^length(w) times the hits of
    each slice, and for each window in ``minimal`` the set of Jordan types
    its slice meets and its first hit in Borel grid order, where it has one.
    For GL and SL the census is also summed per Jordan type and held to the
    class sizes (_check_type_census); Sp slices outside ``minimal`` are not
    typed."""
    typed = kind.family != "Sp"
    census, by_type = 0, Counter()
    type_sets, first_hits = {}, {}
    for w in sorted(kind.weyl_spec.elements(), key=lambda w: w.window):
        scale = q ** w.length()
        keep = w.window in minimal
        if keep:
            type_sets[w.window] = set()
        for hits in _slice_unipotents(kind, w, q, borel):
            census += scale * len(hits)
            if not len(hits) or not (typed or keep):
                continue
            types, inverse = _distinct_jordan_types(hits, q)
            if typed:
                counts = np.bincount(inverse, minlength=len(types)).tolist()
                by_type.update({jt: scale * k for jt, k in zip(types, counts)})
            if keep:
                first_hits.setdefault(w.window, hits[0].copy())
                type_sets[w.window].update(types)
    if typed:
        _check_type_census(kind, q, by_type)
    return census, type_sets, first_hits


def _check_type_census(kind: GroupKind, q: int, by_type: Counter) -> None:
    """Raise IntegrityError unless the census of each Jordan type λ is the
    sum of the sizes of its unipotent classes.  For GL and SL that is one
    class of GL_n(F_q), of size |GL_n(F_q)| / |Z(u_λ)| with |Z(u_λ)| =
    q^(sum λ'_i^2 - sum m_i^2) * prod |GL_{m_i}(F_q)|, m_i the multiplicity
    of the part i, and it lies in SL_n.  For Sp, q odd, it is |Sp(F_q)| /
    |Z_G| summed over the rational forms of λ (_sp_class_keys_of_type,
    _sp_centralizer_order), none unless λ is symplectic; at q = 2 the
    formula does not apply, nothing is checked here, and the report checks
    only the total q^(2N)."""
    n = kind.n
    sp = kind.family == "Sp"
    if sp and q == 2:
        return
    group, order = (kind, kind.order(q)) if sp else (f"GL_{n}", gl_order(n, q))
    for jt in partitions_of(n):
        if sp:
            centralizers = [_sp_centralizer_order(*key, q) for key in _sp_class_keys_of_type(jt)]
        else:
            mult = Counter(jt.parts).values()
            centralizers = [q ** (sum(x * x for x in jt.conjugate()) - sum(m * m for m in mult))
                            * math.prod(gl_order(m, q) for m in mult)]
        expected = sum(_cofactor(order, f"|{group}(F_{q})|", z, f"centralizer order of {jt}")
                       for z in centralizers)
        if by_type[jt] != expected:
            raise IntegrityError(f"unipotent census of {kind}/GF({q}) has {by_type[jt]} elements "
                                 f"of Jordan type {jt}, its classes have {expected}")
