"""Rational Blanchfield pairing, Alexander modules, and the submodule
lattice with isotropy/metabolizer classification."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concord.blanchfield import (
    BlanchfieldValue,
    NotSquareFree,
    Submodule,
    blanchfield_pair,
    class_in_quotient,
    cyclic_generator,
    is_isotropic,
    is_metabolizer,
    module_from_seifert,
    orthogonal,
    submodule_lattice,
    submodule_spanned_by,
)
from concord.intervals import pi_interval
from concord.rings import LaurentPoly, poly_degree, poly_str
from concord.seifert import (
    FIGURE_EIGHT,
    K9_46,
    TREFOIL,
    UNKNOT,
    SeifertMatrix,
    _alexander,
    connected_sum,
    signature_profile,
)

from oracles import blanchfield_reduced, in_presentation_image
from test_seifert import random_seifert

E1 = (LaurentPoly.const(1), LaurentPoly.zero())
E2 = (LaurentPoly.zero(), LaurentPoly.const(1))


# ---------------------------------------------------------------------------
# Module structure


def test_module_9_46():
    m = module_from_seifert(K9_46)
    assert str(m.order) == "-2*t + 5 - 2*t^-1"
    assert m.square_free
    assert [poly_str(f) for f in m.factors] == ["t - 2", "t - 1/2"]
    assert m.rank == 2
    assert [str(g) for g in cyclic_generator(m)] == ["1", "1"]


def test_module_trefoil_and_figure_eight():
    mt = module_from_seifert(TREFOIL)
    assert mt.square_free and len(mt.factors) == 1
    m8 = module_from_seifert(FIGURE_EIGHT)
    assert m8.square_free and len(m8.factors) == 1
    mu = module_from_seifert(UNKNOT)
    assert mu.is_trivial and mu.rank == 0


def test_module_generator_when_summed_picks_cancel_a_component():
    # order -6t^2 + 13t - 6 splits into t - 2/3 and t - 3/2; e1 has no
    # component on t - 2/3, so that factor picks e2, and e1 + e2 has none on
    # t - 3/2, so the plain sum of the picks generates one component only
    import sympy

    V = SeifertMatrix(((5, 3), (2, 0)))
    m = module_from_seifert(V)
    assert [poly_str(f) for f in m.factors] == ["t - 3/2", "t - 2/3"]
    # g generates the cyclic module iff Bl(g, g) has the whole order as its
    # denominator (the form is nonsingular and the order symmetric)
    t = sympy.Symbol("t")
    g = [sum(sympy.Rational(c.numerator, c.denominator) * t ** k for k, c in x.coeffs.items())
         for x in m.generator]
    _, den = blanchfield_reduced(V.entries, g, g)
    assert den == (Fraction(1), Fraction(-13, 6), Fraction(1))
    # the two factors are conjugate, so their submodules are the metabolizers
    assert [str(P) for P in submodule_lattice(m) if is_metabolizer(m, P)] == [
        "S[t - 3/2]", "S[t - 2/3]"]


def test_module_carries_the_callers_name():
    module_from_seifert(TREFOIL)
    built = module_from_seifert.cache_info().misses
    half = SeifertMatrix(TREFOIL.entries, name="granny_half")
    m = module_from_seifert(half)
    assert m.seifert is half
    assert str(m) == "AlexanderModule(granny_half, order=t - 1 + t^-1, cyclic)"
    assert str(module_from_seifert(TREFOIL)).startswith("AlexanderModule(trefoil, ")
    assert module_from_seifert(half) == module_from_seifert(TREFOIL)
    assert module_from_seifert.cache_info().misses == built  # one build per content


def test_module_non_square_free_is_flagged_not_fatal():
    granny = connected_sum(TREFOIL, TREFOIL)
    m = module_from_seifert(granny)
    assert not m.square_free
    assert m.generator is None
    with pytest.raises(NotSquareFree):
        submodule_lattice(m)
    with pytest.raises(NotSquareFree):
        cyclic_generator(m)
    # the pairing itself only needs the Seifert matrix
    x = (LaurentPoly.const(1),) + (LaurentPoly.zero(),) * 3
    assert str(blanchfield_pair(granny, x, x)) == "-t / (t^2 - t + 1)"


# ---------------------------------------------------------------------------
# Frozen 9_46 pairing table (cross-checked against the sympy oracle)


def test_pairing_table_9_46():
    m = module_from_seifert(K9_46)
    assert blanchfield_pair(m, E1, E1).is_zero
    assert blanchfield_pair(m, E2, E2).is_zero
    v12 = blanchfield_pair(m, E1, E2)
    assert str(v12) == "1/4 / (t - 1/2)"
    assert v12.num == (Fraction(1, 4),)
    assert v12.den == (Fraction(-1, 2), Fraction(1))
    v21 = blanchfield_pair(m, E2, E1)
    assert str(v21) == "-1 / (t - 2)"
    assert v21.num == (Fraction(-1),)
    assert v21.den == (Fraction(-2), Fraction(1))
    # hermitian symmetry relates the two off-diagonal values
    assert v21 == v12.conjugate()


def test_pairing_matches_sympy_oracle_on_catalog():
    import sympy

    t = sympy.Symbol("t")
    entries = (
        (sympy.Integer(1), LaurentPoly.const(1)),
        (sympy.Integer(0), LaurentPoly.zero()),
        (t, LaurentPoly.t()),
        (1 - t, LaurentPoly.const(1) - LaurentPoly.t()),
        (2 * t, LaurentPoly.t() * 2),
    )
    vectors = [(0, 1), (1, 0), (0, 0), (2, 0), (3, 4)]
    for V in (TREFOIL, FIGURE_EIGHT, K9_46):
        for xi in vectors:
            for yi in vectors:
                x_sym = [entries[i][0] for i in xi]
                y_sym = [entries[i][0] for i in yi]
                want_num, want_den = blanchfield_reduced(V.entries, x_sym, y_sym)
                x_lp = tuple(entries[i][1] for i in xi)
                y_lp = tuple(entries[i][1] for i in yi)
                got = blanchfield_pair(V, x_lp, y_lp)
                assert got.num == want_num, (V.display_name, xi, yi)
                assert got.den == want_den, (V.display_name, xi, yi)


def test_pair_accepts_matrix_or_module():
    a = blanchfield_pair(K9_46, E1, E2)
    b = blanchfield_pair(module_from_seifert(K9_46), E1, E2)
    assert a == b


def test_pairing_convention_on_split_base():
    # the pairing is well defined on the cokernel of B^T, membership is taken
    # in the cokernel of B: B e1 is zero in the module, yet pairs
    # nontrivially, while B^T e1 pairs to zero
    V = SeifertMatrix(((5, 3), (2, 0)))
    t = LaurentPoly.t()
    b_e1 = (5 * t - 5, 3 * t - 2)  # first column of B = tV^T - V
    bt_e1 = (5 * t - 5, 2 * t - 3)  # first row of B
    assert blanchfield_pair(V, bt_e1, E1).is_zero
    assert blanchfield_pair(V, bt_e1, E2).is_zero
    assert str(blanchfield_pair(V, b_e1, E1)) == "-5/8 / (t - 3/2)"
    assert Submodule(module_from_seifert(V), (Fraction(1),), E1).contains(b_e1)


# ---------------------------------------------------------------------------
# Singular Seifert matrices: deg Delta < 2g, so the module is smaller than Q^2g


def _sympy_vector(xs):
    import sympy

    t = sympy.Symbol("t")
    return [sum((sympy.Rational(c.numerator, c.denominator) * t**k for k, c in x.coeffs.items()),
                sympy.Integer(0)) for x in xs]


def _image_of_presentation(V, z):
    """B z for B = tV^T - V."""
    t, n = LaurentPoly.t(), V.size
    return tuple(sum(((t * V[j, i] - V[i, j]) * z[j] for j in range(n)), LaurentPoly.zero())
                 for i in range(n))


def test_singular_seifert_matrices_against_sympy():
    # quotas by (singular, genus); genus 3 is kept rare because the sympy
    # pairing takes about 0.2 s there
    quota = {(True, 1): 4, (True, 2): 4, (True, 3): 2,
             (False, 1): 8, (False, 2): 10, (False, 3): 4}
    rng = random.Random(2024)
    modules = []
    while any(quota.values()):
        V = random_seifert(rng, rng.randint(1, 3), -1, 1)
        m = module_from_seifert(V)
        key = (poly_degree(m.order_poly) < V.size, V.genus)
        if quota[key]:
            quota[key] -= 1
            modules.append(m)
    for m in modules:
        V, n = m.seifert, m.rank
        # membership in the image of B: the zero submodule contains exactly it
        zero = Submodule(m, (Fraction(1),), (LaurentPoly.zero(),) * n)
        z, x, y = (rand_vector(rng, n) for _ in range(3))
        bz = _image_of_presentation(V, z)
        assert zero.contains(bz)
        shifted = tuple(a + b for a, b in zip(bz, x))
        assert zero.contains(shifted) == in_presentation_image(V.entries, _sympy_vector(shifted))
        got = blanchfield_pair(m, x, y)
        want = blanchfield_reduced(V.entries, _sympy_vector(x), _sympy_vector(y))
        assert (got.num, got.den) == want, (V.entries, x, y)
    assert len(modules) == 32


# ---------------------------------------------------------------------------
# Lattice, isotropy, metabolizers


def test_lattice_9_46_frozen():
    m = module_from_seifert(K9_46)
    lat = submodule_lattice(m)
    assert [str(s) for s in lat] == [
        "S[1]", "S[t - 2]", "S[t - 1/2]", "S[t^2 - 5/2*t + 1]",
    ]
    assert [is_isotropic(m, s) for s in lat] == [True, True, True, False]
    assert [is_metabolizer(m, s) for s in lat] == [False, True, True, False]
    assert lat[0].is_zero_submodule and lat[3].is_whole_module
    # metabolizers are self-orthogonal; the zero submodule pairs with everything
    assert orthogonal(m, lat[1]) == lat[1]
    assert orthogonal(m, lat[2]) == lat[2]
    assert orthogonal(m, lat[0]) == lat[3]
    assert orthogonal(m, lat[3]) == lat[0]


def test_lattice_irreducible_orders():
    for V in (TREFOIL, FIGURE_EIGHT):
        m = module_from_seifert(V)
        lat = submodule_lattice(m)
        assert len(lat) == 2
        assert lat[0].is_zero_submodule and lat[1].is_whole_module
        assert is_isotropic(m, lat[0])
        assert not is_metabolizer(m, lat[0])  # nonsingular pairing, module != 0
        assert not is_isotropic(m, lat[1])


def test_lattice_unknot():
    m = module_from_seifert(UNKNOT)
    (only,) = submodule_lattice(m)
    assert only.is_zero_submodule and only.is_whole_module
    assert is_metabolizer(m, only)


def test_spans_and_quotient_classes_9_46():
    m = module_from_seifert(K9_46)
    lat = submodule_lattice(m)
    assert submodule_spanned_by(m, [E1]) == lat[1]  # alpha generates S[t - 2]
    assert submodule_spanned_by(m, [E2]) == lat[2]  # beta generates S[t - 1/2]
    assert submodule_spanned_by(m, [E1, E2]).is_whole_module
    assert submodule_spanned_by(m, []).is_zero_submodule
    # epsilon tables: which basis classes survive in the quotient by each P
    assert [class_in_quotient(m, x, lat[0]) for x in (E1, E2)] == [1, 1]
    assert [class_in_quotient(m, x, lat[1]) for x in (E1, E2)] == [0, 1]
    assert [class_in_quotient(m, x, lat[2]) for x in (E1, E2)] == [1, 0]
    assert [class_in_quotient(m, x, lat[3]) for x in (E1, E2)] == [0, 0]


def test_membership_in_submodules():
    m = module_from_seifert(K9_46)
    lat = submodule_lattice(m)
    assert lat[1].contains(E1) and not lat[1].contains(E2)
    assert lat[2].contains(E2) and not lat[2].contains(E1)
    zero = (LaurentPoly.zero(), LaurentPoly.zero())
    assert lat[0].contains(zero)
    assert lat[3].contains(E1) and lat[3].contains(E2)


# ---------------------------------------------------------------------------
# Pairing properties (randomized)


def rand_vector(rng, n):
    return tuple(
        LaurentPoly(
            {rng.randint(-1, 1): Fraction(rng.randint(-3, 3))
             for _ in range(rng.randint(0, 2))}
        )
        for _ in range(n)
    )


CATALOG = (TREFOIL, FIGURE_EIGHT, K9_46, connected_sum(TREFOIL, FIGURE_EIGHT))


def test_pairing_hermitian_random():
    rng = random.Random(73)
    for _ in range(120):
        V = CATALOG[rng.randrange(len(CATALOG))]
        x = rand_vector(rng, V.size)
        y = rand_vector(rng, V.size)
        assert blanchfield_pair(V, x, y) == blanchfield_pair(V, y, x).conjugate()


def test_pairing_sesquilinear_random():
    rng = random.Random(79)
    for _ in range(120):
        V = CATALOG[rng.randrange(len(CATALOG))]
        x = rand_vector(rng, V.size)
        xx = rand_vector(rng, V.size)
        y = rand_vector(rng, V.size)
        p = LaurentPoly({rng.randint(-1, 1): Fraction(rng.randint(-2, 2))})
        # additive in the first slot
        s = tuple(a + b for a, b in zip(x, xx))
        assert (blanchfield_pair(V, s, y)
                == blanchfield_pair(V, x, y) + blanchfield_pair(V, xx, y))
        # Q[t, 1/t]-linear in the first slot, conjugate-linear in the second
        px = tuple(p * a for a in x)
        assert blanchfield_pair(V, px, y) == blanchfield_pair(V, x, y).scaled(p)
        py = tuple(p * a for a in y)
        assert (blanchfield_pair(V, x, py)
                == blanchfield_pair(V, x, y).scaled(p.conjugate()))


def test_pairing_nonsingular_on_catalog_modules():
    # every element with nonzero class pairs nontrivially with some basis class
    rng = random.Random(83)
    checked = 0
    basis = {}
    for V in (TREFOIL, FIGURE_EIGHT, K9_46):
        n = V.size
        basis[V] = [
            tuple(LaurentPoly.const(1 if i == j else 0) for j in range(n))
            for i in range(n)
        ]
    while checked < 100:
        V = (TREFOIL, FIGURE_EIGHT, K9_46)[rng.randrange(3)]
        m = module_from_seifert(V)
        x = rand_vector(rng, V.size)
        if submodule_spanned_by(m, [x]).is_zero_submodule:
            continue
        assert any(not blanchfield_pair(m, x, e).is_zero for e in basis[V]), x
        checked += 1


def test_blanchfield_value_algebra():
    v = BlanchfieldValue.from_fraction((Fraction(1),), (Fraction(-2), Fraction(1)))
    assert not v.is_zero
    assert (v - v).is_zero
    assert v + v == BlanchfieldValue.from_fraction(
        (Fraction(2),), (Fraction(-2), Fraction(1))
    )
    z = BlanchfieldValue.zero()
    assert z.is_zero and z.conjugate().is_zero
    # Laurent-polynomial parts are killed in Q(t)/Q[t, 1/t]
    whole = BlanchfieldValue.from_fraction((Fraction(3),), (Fraction(1),))
    assert whole.is_zero


# ---------------------------------------------------------------------------
# Genus 6, in a subprocess with a timeout so that a slow module build fails
# the test instead of stalling the suite

ROOT = Path(__file__).resolve().parents[1]

GENUS_6_SCRIPT = """
import json, random, time
from concord.blanchfield import is_isotropic, module_from_seifert, submodule_lattice
from concord.rings import poly_is_squarefree, poly_monic
from concord.seifert import alexander_polynomial
from test_seifert import random_seifert

rng = random.Random(7)
V = random_seifert(rng, 6)
while not poly_is_squarefree(poly_monic(alexander_polynomial(V).to_dense()[0])):
    V = random_seifert(rng, 6)
start = time.perf_counter()
m = module_from_seifert(V)
isotropic = [is_isotropic(m, S) for S in submodule_lattice(m)]
print(json.dumps({"seconds": time.perf_counter() - start, "isotropic": isotropic}))
"""


def test_genus_6_module_and_lattice_are_fast():
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", GENUS_6_SCRIPT], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["isotropic"] == [True, False]  # irreducible order: 0 and the whole module
    assert out["seconds"] < 5


def test_content_caches_are_bounded():
    """The content-keyed caches keep a fixed number of entries, however many
    distinct matrices a batch brings."""
    for c in range(1500):  # distinct matrices, all with Delta = 1, so cheap
        V = SeifertMatrix(((0, 1), (0, c)))
        module_from_seifert(V)
        signature_profile(V)
    for bits in range(1, 1100):
        pi_interval(bits)
    for cached in (module_from_seifert, _alexander, signature_profile, pi_interval):
        info = cached.cache_info()
        assert info.maxsize == 1024
        assert info.currsize <= info.maxsize
    assert module_from_seifert.cache_info().misses >= 1500
    assert str(module_from_seifert(TREFOIL)).startswith("AlexanderModule(trefoil, ")
