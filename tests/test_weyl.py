import itertools
import random

import pytest

from bruhatkit import weyl
from bruhatkit.errors import IntegrityError
from bruhatkit.partitions import Partition, partitions_of
from bruhatkit.weyl import (
    GroupSpec,
    WeylElement,
    chevalley_order,
    conjugacy_classes,
    gl_order,
    poincare_from_degrees,
    poincare_polynomial,
    signed_window_from_symmetric,
    symplectic_signed_window,
)

S3 = GroupSpec("A", 2)
C2 = GroupSpec("BC", 2)
D2 = GroupSpec("D", 2)

SMALL_SPECS = [
    GroupSpec("A", 1), GroupSpec("A", 2), GroupSpec("A", 3),
    GroupSpec("BC", 1), GroupSpec("BC", 2), GroupSpec("BC", 3),
    GroupSpec("D", 2), GroupSpec("D", 3),
]


def mulclose(gens):
    # independent closure oracle: all products of generator sequences
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("E", 6)
    with pytest.raises(ValueError):
        GroupSpec("A", 0)
    with pytest.raises(ValueError):
        GroupSpec("D", 1)


def test_window_validation():
    with pytest.raises(ValueError):
        WeylElement(S3, (1, 2))
    with pytest.raises(ValueError):
        WeylElement(S3, (1, 1, 2))
    with pytest.raises(ValueError):
        WeylElement(S3, (-1, 2, 3))  # family A must be positive
    with pytest.raises(ValueError):
        WeylElement(GroupSpec("D", 2), (-1, 2))  # odd sign count
    WeylElement(GroupSpec("D", 2), (-1, -2))


def test_generators_families():
    a_gens = S3.generators()
    assert [g.window for g in a_gens] == [(2, 1, 3), (1, 3, 2)]
    assert all(g.length() == 1 for g in a_gens)
    bc_gens = C2.generators()
    assert [g.window for g in bc_gens] == [(2, 1), (1, -2)]
    assert len(mulclose(bc_gens)) == 8
    d_gens = D2.generators()
    assert len(mulclose(d_gens)) == 4
    for spec in SMALL_SPECS:
        assert len(mulclose(spec.generators())) == spec.order()
        assert all(g * g == spec.identity() for g in spec.generators())


def test_multiplication_and_inverse():
    for spec in SMALL_SPECS:
        e = spec.identity()
        for w in spec.elements():
            assert w * w.inverse() == e
            assert e * w == w
            assert w.length() == w.inverse().length()
    s1, s2 = S3.generators()
    assert s1 * s2 * s1 == s2 * s1 * s2
    with pytest.raises(ValueError):
        s1 * C2.generators()[0]


def test_lengths():
    assert S3.identity().length() == 0
    assert S3.longest_element().length() == 3
    assert C2.longest_element().length() == 4
    for spec in SMALL_SPECS:
        n_roots = spec.num_positive_roots()
        for w in spec.elements():
            assert 0 <= w.length() <= n_roots


def _positive_roots(family, n):
    # e_i - e_j and e_i + e_j for i < j, and e_i for BC, as coefficient lists
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (-1, 1):
                root = [0] * n
                root[i], root[j] = 1, sign
                roots.append(root)
    if family == "BC":
        for i in range(n):
            root = [0] * n
            root[i] = 1
            roots.append(root)
    return roots


def _act(window, vector):
    # w(e_i) = sign(w(i)) e_|w(i)|
    image = [0] * len(window)
    for i, c in enumerate(vector):
        image[abs(window[i]) - 1] += c if window[i] > 0 else -c
    return image


def test_lengths_count_the_positive_roots_sent_negative():
    # a root is negative when its first nonzero coefficient is
    for family, ranks in (("BC", range(1, 5)), ("D", range(2, 6))):
        for n in ranks:
            roots = _positive_roots(family, n)
            for w in GroupSpec(family, n).elements():
                sent_negative = sum(next(c for c in _act(w.window, a) if c) < 0 for a in roots)
                assert w.length() == sent_negative, w


def test_generator_steps_change_length_by_one():
    for spec in [GroupSpec("A", 4), GroupSpec("BC", 4), GroupSpec("D", 4)]:
        gens = spec.generators()
        for w in spec.elements():
            lw = w.length()
            for s in gens:
                assert abs((s * w).length() - lw) == 1


def test_longest_element():
    assert S3.longest_element().window == (3, 2, 1)
    assert C2.longest_element().window == (-1, -2)
    for spec in SMALL_SPECS:
        w0 = spec.longest_element()
        n_roots = spec.num_positive_roots()
        assert w0.length() == n_roots
        # unique maximum, by exhaustion
        assert sum(1 for w in spec.elements() if w.length() == n_roots) == 1
    # the longest element of W(C2) is central
    w0 = C2.longest_element()
    assert all(w0 * w == w * w0 for w in C2.elements())


def test_reduced_words():
    assert S3.identity().reduced_word() == ()
    for spec in SMALL_SPECS:
        gens = spec.generators()
        for i, s in enumerate(gens, start=1):
            assert s.reduced_word() == (i,)
    w0 = S3.longest_element()
    word = w0.reduced_word()
    assert len(word) == 3
    for spec in [GroupSpec("A", 4), GroupSpec("BC", 4), GroupSpec("D", 4)]:
        gens = spec.generators()
        for w in spec.elements():
            word = w.reduced_word()
            assert len(word) == w.length()
            prod = spec.identity()
            for i in word:
                prod = prod * gens[i - 1]
            assert prod == w


def test_reflection_matrix():
    ident = C2.identity().reflection_matrix()
    assert ident == ((1, 0), (0, 1))
    sign_flip = C2.generators()[1].reflection_matrix()
    assert sign_flip == ((1, 0), (0, -1))
    # an n-cycle acts without fixed vectors on the sum-zero subspace
    cyc = WeylElement(S3, (2, 3, 1))
    m = cyc.reflection_matrix()
    a, b = m[0][0] - 1, m[0][1]
    c, d = m[1][0], m[1][1] - 1
    assert a * d - b * c != 0


def test_reflection_matrix_is_homomorphism():
    for spec in [GroupSpec("A", 3), GroupSpec("BC", 3), GroupSpec("D", 3)]:
        elements = list(spec.elements())
        for a, b in itertools.product(elements, repeat=2):
            assert _mat_mul(a.reflection_matrix(), b.reflection_matrix()) == (a * b).reflection_matrix()
    rng = random.Random(0)
    for spec in [GroupSpec("A", 5), GroupSpec("BC", 5), GroupSpec("D", 5)]:
        elements = list(spec.elements())
        for _ in range(100):
            a, b = rng.choice(elements), rng.choice(elements)
            assert _mat_mul(a.reflection_matrix(), b.reflection_matrix()) == (a * b).reflection_matrix()


def _mat_mul(m1, m2):
    n = len(m1)
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def test_is_elliptic_examples():
    assert not S3.identity().is_elliptic()
    assert WeylElement(S3, (2, 3, 1)).is_elliptic()  # 3-cycle
    assert not WeylElement(S3, (2, 1, 3)).is_elliptic()  # transposition
    assert C2.longest_element().is_elliptic()  # acts as -identity


def test_elliptic_is_class_function():
    for spec in [GroupSpec("A", 4), GroupSpec("BC", 4), GroupSpec("D", 4)]:
        for cls in conjugacy_classes(spec):
            flags = {w.is_elliptic() for w in cls.elements}
            assert flags == {cls.elliptic}


def test_elliptic_characterizations():
    # family A: exactly the single-cycle classes; BC: exactly those with no
    # positive cycles.  Derived facts, checked exhaustively through rank 5.
    for rank in range(1, 6):
        for cls in conjugacy_classes(GroupSpec("A", rank)):
            assert cls.elliptic == (len(cls.label) == 1)
        for cls in conjugacy_classes(GroupSpec("BC", rank)):
            lam, mu = cls.label
            assert cls.elliptic == (lam.size == 0)


def test_conjugacy_classes_s3():
    classes = conjugacy_classes(S3)
    assert sorted(tuple(c.label.parts) for c in classes) == [(1, 1, 1), (2, 1), (3,)]
    by_label = {tuple(c.label.parts): c for c in classes}
    assert by_label[(1, 1, 1)].size == 1 and by_label[(1, 1, 1)].min_length == 0
    assert by_label[(2, 1)].size == 3 and by_label[(2, 1)].min_length == 1
    assert by_label[(3,)].size == 2 and by_label[(3,)].min_length == 2


def test_conjugacy_classes_c2():
    classes = conjugacy_classes(C2)
    labels = {(tuple(l.parts), tuple(m.parts)) for l, m in (c.label for c in classes)}
    assert labels == {((1, 1), ()), ((2,), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))}
    elliptic = {(tuple(l.parts), tuple(m.parts)) for l, m in
                (c.label for c in classes if c.elliptic)}
    assert elliptic == {((), (2,)), ((), (1, 1))}
    w0_class = next(c for c in classes if c.label[1].parts == (1, 1))
    assert w0_class.size == 1 and w0_class.min_length == 4


def test_conjugacy_classes_partition_and_invariance():
    rng = random.Random(1)
    for spec in [GroupSpec("A", 3), GroupSpec("BC", 3), GroupSpec("D", 4)]:
        classes = conjugacy_classes(spec)
        assert sum(c.size for c in classes) == spec.order()
        seen = set()
        for c in classes:
            assert not (c.elements & seen)
            seen |= c.elements
        elements = list(spec.elements())
        for c in classes:
            members = list(c.min_elements)
            assert all(w.length() == c.min_length for w in members)
            assert min(w.length() for w in c.elements) == c.min_length
            for _ in range(10):
                g = rng.choice(elements)
                w = rng.choice(members)
                assert g * w * g.inverse() in c.elements


def test_min_elements_come_in_window_order():
    for spec in SMALL_SPECS + [GroupSpec("BC", 4), GroupSpec("D", 4)]:
        for c in conjugacy_classes(spec):
            assert isinstance(c.min_elements, tuple)
            windows = [w.window for w in c.min_elements]
            assert windows == sorted(windows)
            assert set(c.min_elements) == {w for w in c.elements if w.length() == c.min_length}
            assert c.representative == c.min_elements[0]


def test_conjugacy_class_labels_match_cycle_structure():
    # A labels: cycle type of any member; BC labels: signed cycle type
    for cls in conjugacy_classes(GroupSpec("A", 4)):
        assert {w.cycle_type() for w in cls.elements} == {cls.label}
    for cls in conjugacy_classes(GroupSpec("BC", 3)):
        assert {w.signed_cycle_type() for w in cls.elements} == {cls.label}
    # there is one class per label: pairs of partitions with |lam|+|mu| = n
    for n in range(1, 5):
        classes = conjugacy_classes(GroupSpec("BC", n))
        expected = sum(
            len(partitions_of(k)) * len(partitions_of(n - k)) for k in range(n + 1)
        )
        assert len(classes) == expected


def _compose(a, b):
    # (a o b)(i) = a(b(i)) on signed windows
    return tuple(a[k - 1] if k > 0 else -a[-k - 1] for k in b)


def _bfs_classes(spec):
    # brute-force class oracle: close each element under conjugation by the
    # simple reflections, one frontier at a time
    gens = [g.window for g in spec.generators()]
    seen, classes = set(), []
    for start in (w.window for w in spec.elements()):
        if start in seen:
            continue
        seen.add(start)
        orbit, frontier = [start], [start]
        while frontier:
            new_frontier = []
            for w in frontier:
                for s in gens:
                    c = _compose(s, _compose(w, s))
                    if c not in seen:
                        seen.add(c)
                        orbit.append(c)
                        new_frontier.append(c)
            frontier = new_frontier
        classes.append(orbit)
    return classes


def _walked_label(window, family):
    # (signed) cycle type by its own cycle walk, for the oracle's labels
    pos, neg, seen = [], [], set()
    for start in range(1, len(window) + 1):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(window[i - 1])
            i = abs(window[i - 1])
        if cycle:
            (neg if sum(v < 0 for v in cycle) % 2 else pos).append(len(cycle))
    if family == "A":
        return Partition(pos)
    return (Partition(pos), Partition(neg)) if family == "BC" else None


ORACLE_SPECS = ([GroupSpec("A", n) for n in range(1, 8)]
                + [GroupSpec("BC", n) for n in range(1, 7)]
                + [GroupSpec("D", n) for n in range(2, 7)])


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_classes_match_the_bfs_oracle(spec):
    classes = conjugacy_classes(spec)
    oracle = []
    for orbit in _bfs_classes(spec):
        elements = [WeylElement(spec, w) for w in orbit]
        d_min = min(w.length() for w in elements)
        min_elements = sorted((w for w in elements if w.length() == d_min), key=lambda w: w.window)
        oracle.append((d_min, min_elements, set(orbit)))
    oracle.sort(key=lambda c: (c[0], c[1][0].window))
    assert len(classes) == len(oracle)
    for cls, (d_min, min_elements, orbit) in zip(classes, oracle):
        assert {w.window for w in cls.elements} == orbit
        assert cls.min_length == d_min
        assert list(cls.min_elements) == min_elements
        assert cls.label == _walked_label(min_elements[0].window, spec.family)
        assert cls.elliptic == min_elements[0].is_elliptic()


def test_d4_splits_two_classes_by_the_sign_change_parity():
    spec = GroupSpec("D", 4)
    keys = {weyl._class_key(w.window, "D") for w in spec.elements()}
    assert len(keys) == len(conjugacy_classes(spec)) == 13
    assert len({key[:2] for key in keys}) == 11
    assert {key for key in keys if len(key) == 3} == {
        ((2, 2), (), 0), ((2, 2), (), 1), ((4,), (), 0), ((4,), (), 1)}


def test_size_check_catches_a_d_key_without_the_parity(monkeypatch):
    key = weyl._class_key
    monkeypatch.setattr(weyl, "_class_key", lambda w, family: key(w, family)[:2])
    with pytest.raises(IntegrityError, match="elements, not"):
        conjugacy_classes(GroupSpec("D", 4))


def test_size_check_catches_an_a_key_by_the_number_of_cycles(monkeypatch):
    key = weyl._class_key
    monkeypatch.setattr(weyl, "_class_key", lambda w, family: (len(key(w, family)),))
    with pytest.raises(IntegrityError, match="elements, not"):
        conjugacy_classes(GroupSpec("A", 3))


def test_rank_cap():
    with pytest.raises(ValueError):
        conjugacy_classes(GroupSpec("A", 8))
    conjugacy_classes(GroupSpec("A", 8), rank_cap=8)  # explicit override works
    with pytest.raises(ValueError):
        poincare_polynomial(GroupSpec("BC", 8))


def test_degrees():
    assert GroupSpec("A", 2).degrees() == [2, 3]
    assert GroupSpec("BC", 2).degrees() == [2, 4]
    assert GroupSpec("D", 4).degrees() == [2, 4, 6, 4]
    for spec in SMALL_SPECS + [GroupSpec("D", 4), GroupSpec("BC", 6), GroupSpec("A", 6)]:
        prod = 1
        for d in spec.degrees():
            prod *= d
        assert prod == spec.order()
        assert spec.num_positive_roots() == sum(d - 1 for d in spec.degrees())


def test_poincare_polynomial():
    assert str(poincare_polynomial(S3)) == "q^3 + 2*q^2 + 2*q + 1"
    p_c2 = poincare_polynomial(C2)
    assert p_c2.coeffs == (1, 2, 2, 2, 1)
    for spec in SMALL_SPECS:
        p = poincare_polynomial(spec)
        assert p(1) == spec.order()
        assert p == poincare_from_degrees(spec)


def test_chevalley_and_gl_orders():
    # oracle: exhaustive count of invertible matrices over tiny fields
    from bruhatkit.exact import GF, enumerate_matrices

    for n, q in [(2, 2), (3, 2)]:
        count = sum(1 for m in enumerate_matrices(GF(q), n) if m.det() != 0)
        assert gl_order(n, q) == count
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert chevalley_order(C2, 3) == 51840
    assert chevalley_order(GroupSpec("A", 1), 5) == 120  # |SL_2(F_5)|
    for bad in (1, 0, 6, 12):
        with pytest.raises(ValueError):
            chevalley_order(C2, bad)
    chevalley_order(C2, 4)  # prime powers fine for the formula
    with pytest.raises(ValueError):
        gl_order(0, 2)


def test_embedding_into_symmetric_group():
    # the embedding is a homomorphism onto pairing-compatible permutations
    spec = GroupSpec("BC", 3)
    elements = list(spec.elements())
    rng = random.Random(2)
    for _ in range(200):
        a, b = rng.choice(elements), rng.choice(elements)
        assert (a * b).embed_in_symmetric() == a.embed_in_symmetric() * b.embed_in_symmetric()
    for w in elements:
        back = signed_window_from_symmetric(w.embed_in_symmetric().window)
        assert back == w.window
        assert symplectic_signed_window(w.embed_in_symmetric().window) == w.window
    # permutations breaking the pairing are rejected, and the GL cell of a
    # symplectic matrix outside the embedded group is an integrity failure
    assert signed_window_from_symmetric((2, 1, 3, 4)) is None
    assert signed_window_from_symmetric((1, 2, 3)) is None
    with pytest.raises(IntegrityError, match=r"GL cell \(2, 1, 3, 4\), outside the embedded group"):
        symplectic_signed_window((2, 1, 3, 4))


def test_signed_cycle_type_examples():
    assert WeylElement(C2, (2, 1)).signed_cycle_type() == (Partition([2]), Partition())
    assert WeylElement(C2, (-2, -1)).signed_cycle_type() == (Partition([2]), Partition())
    assert WeylElement(C2, (2, -1)).signed_cycle_type() == (Partition(), Partition([2]))
    assert WeylElement(C2, (-1, 2)).signed_cycle_type() == (Partition([1]), Partition([1]))
    assert WeylElement(C2, (-1, -2)).signed_cycle_type() == (Partition(), Partition([1, 1]))


@pytest.mark.parametrize("family", ["BC", "D"])
@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_all_windows_match_the_filtered_product(family, rank):
    # oracle: every sign tuple under every permutation, the odd ones dropped
    # for D afterwards
    degree = GroupSpec(family, rank).degree
    expected = [tuple(s * v for s, v in zip(signs, perm))
                for perm in itertools.permutations(range(1, degree + 1))
                for signs in itertools.product((1, -1), repeat=degree)
                if family == "BC" or signs.count(-1) % 2 == 0]
    assert list(weyl._all_windows(GroupSpec(family, rank))) == expected
