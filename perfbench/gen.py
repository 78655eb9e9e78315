"""Seeded inputs for the benchmark workloads, and the exact polynomial
arithmetic that both the generators and the output checks rest on.

Nothing here imports concord: the determinants, Sturm counts and polynomial
divisions are the benchmark's own, so that a check built on them is
independent of the code it checks.  Polynomials are lists of ascending
coefficients (ints or Fractions).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Exact polynomial arithmetic


def p_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def p_deg(p):
    return len(p_trim(p)) - 1


def p_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def p_add(a, b):
    n = max(len(a), len(b))
    return p_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def p_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_trim(out)


def p_divmod(a, b):
    a, b = [Fraction(x) for x in p_trim(a)], p_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            a[i + k] -= f * c
        a = p_trim(a)
    return p_trim(q), a


def p_monic(p):
    p = p_trim(p)
    return [Fraction(c) / p[-1] for c in p]


def p_gcd(a, b):
    a, b = p_trim(a), p_trim(b)
    while b:
        a, b = b, p_divmod(a, b)[1]
    return p_monic(a)


def p_deriv(p):
    return p_trim([k * c for k, c in enumerate(p)][1:])


def p_reciprocal(p):
    """Monic d* with d*(t) proportional to t^deg(d) d(1/t)."""
    return p_monic(list(reversed(p_trim(p))))


def is_square_free(p):
    return p_deg(p_gcd(p, p_deriv(p))) == 0


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                v = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = v // prev if isinstance(v, int) else v / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def seifert_det_at(V, t):
    """det(V - t V^T) at one rational point."""
    n = len(V)
    return det([[V[i][j] - t * V[j][i] for j in range(n)] for i in range(n)])


def alexander_coeffs(V):
    """Ascending coefficients of det(V - t V^T), by interpolation at 0..2g."""
    n = len(V)
    xs = list(range(n + 1))
    ys = [Fraction(seifert_det_at(V, x)) for x in xs]
    out = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = p_mul(basis, [-xj, 1])
                denom *= xi - xj
        for k, c in enumerate(basis):
            out[k] += ys[i] * c / denom
    return p_trim(out)


def _sturm_variations(chain, x):
    signs = [s for s in ((p_eval(p, x) > 0) - (p_eval(p, x) < 0) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def upper_circle_roots(P):
    """Number of roots of the palindromic polynomial P (degree 2g) on the
    open upper unit semicircle: real roots of R(u) in (-2, 2), where
    t^-g P(t) = R(t + 1/t).  These are the jumps of the signature profile."""
    g = (len(P) - 1) // 2
    s = [[2], [0, 1]]  # s_k(t + 1/t) = t^k + t^-k
    for k in range(2, g + 1):
        s.append(p_add(p_mul([0, 1], s[k - 1]), [-c for c in s[k - 2]]))
    R = [P[g]]
    for k in range(1, g + 1):
        R = p_add(R, [P[g + k] * c for c in s[k]])
    chain = [R, p_deriv(R)]
    while p_deg(chain[-1]) > 0:
        chain.append([-c for c in p_divmod(chain[-2], chain[-1])[1]])
    return _sturm_variations(chain, Fraction(-2)) - _sturm_variations(chain, Fraction(2))


# ---------------------------------------------------------------------------
# Seifert matrices


def random_seifert(rng, g, bound):
    """V = S + E with S symmetric, entries in [-bound, bound], and E the
    block sum of ((0, 1), (0, 0)), so that V - V^T is the standard
    symplectic form and det(V - V^T) = 1."""
    n = 2 * g
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = rng.randint(-bound, bound)
    for k in range(g):
        S[2 * k][2 * k + 1] += 1
    return tuple(tuple(r) for r in S)


def present(rng, V, moves=None):
    """A random symplectic change of basis P^T V P, with P a product of
    transvections x -> x + c (v^T J x) v, c = +-1, where v is a basis vector
    or the sum or difference of the two vectors of one symplectic pair (so
    block sums stay block sums).  P^T J P = J, so the result is again a
    Seifert matrix with V - V^T = J, with the same Alexander polynomial,
    signature profile and module: another presentation of the same knot
    data."""
    n = len(V)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves or n // 2):
        v = [0] * n
        i = rng.randrange(n)
        v[i] = 1
        v[i ^ 1] = rng.choice((-1, 0, 1))
        c = rng.choice((-1, 1))
        Jv = [v[k + 1] if k % 2 == 0 else -v[k - 1] for k in range(n)]  # row v^T J
        T = [[int(a == b) + c * v[a] * Jv[b] for b in range(n)] for a in range(n)]
        P = [[sum(P[a][k] * T[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    PV = [[sum(P[k][a] * V[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    return tuple(tuple(sum(PV[a][k] * P[k][b] for k in range(n)) for b in range(n)) for a in range(n))


def mirror_entries(V):
    n = len(V)
    return tuple(tuple(-V[j][i] for j in range(n)) for i in range(n))


def block_sum(A, B):
    n, m = len(A), len(B)
    return tuple(tuple(A[i]) + (0,) * m for i in range(n)) + tuple(
        (0,) * n + tuple(B[i]) for i in range(m)
    )


def arf_symplectic(V):
    """Arf invariant from the quadratic form x -> x^T V x mod 2 on the
    symplectic basis (e_2k, e_2k+1) that V - V^T = J provides."""
    return sum(V[2 * k][2 * k] * V[2 * k + 1][2 * k + 1] for k in range(len(V) // 2)) % 2


def trefoil_sum(k, mirrored=False):
    """k-fold connected sum of right-handed trefoils ((-1, 1), (0, -1))."""
    V = ()
    for _ in range(k):
        V = block_sum(V, ((-1, 1), (0, -1)))
    return mirror_entries(V) if mirrored else V


# a with a t^2 + (1 - 2a) t + a irreducible over Q (discriminant 1 - 4a not a square)
GENUS1_IRREDUCIBLE = tuple(
    a for a in range(-6, 7) if a and not (1 - 4 * a >= 0 and math.isqrt(1 - 4 * a) ** 2 == 1 - 4 * a)
)


def genus1_with_det(rng, a, bound=5):
    """A random genus-1 V = ((x, y + 1), (y, z)), entries within bound, with
    det V = a, so that det(V - t V^T) = a t^2 + (1 - 2a) t + a."""
    r = range(-bound, bound + 1)
    found = [(x, y, z) for x in r for y in r for z in r if x * z - y * y - y == a]
    x, y, z = rng.choice(found)
    return ((x, y + 1), (y, z))


def genus1_roots(a):
    """The two rational roots of a t^2 + (1 - 2a) t + a, for a with
    1 - 4a a square."""
    s = math.isqrt(1 - 4 * a)
    return tuple(Fraction(2 * a - 1 + sign * s, 2 * a) for sign in (1, -1))


def component_vanishes(V, lam, x):
    """Whether the vector x over Q has no component on the factor t - lam of
    a genus-1 module: x lies in the image of B(lam) = lam V^T - V, that is
    adj(B(lam)) x = 0."""
    b = [[lam * V[j][i] - V[i][j] for j in range(2)] for i in range(2)]
    return b[1][1] * x[0] - b[0][1] * x[1] == 0 and b[0][0] * x[1] - b[1][0] * x[0] == 0


def summed_generator_misses(V, a):
    """Whether module_from_seifert's cyclic generator misses a component of
    the genus-1 module V with split order a t^2 + (1 - 2a) t + a.  For each
    factor the program takes the first basis vector with a component on it
    and sums the picks: when e1 has none on one factor (which then picks
    e2) and e1 + e2 has none on the other, the sum generates one component
    only and the program's sanity assertion fails."""
    l1, l2 = genus1_roots(a)
    return any(component_vanishes(V, x, (1, 0)) and component_vanishes(V, y, (1, 1))
               for x, y in ((l1, l2), (l2, l1)))


class Generator:
    """Per-run source of fresh inputs.

    The knot data of a round (Alexander polynomials, hence signature jumps,
    interval work and module structure) comes from a panel that is the same
    in every round and every run, so each round does the same amount of
    work and a run's throughput does not depend on how many rounds fit.
    The seed and the round pick the matrices that present that data: a
    random symplectic change of basis of each panel matrix, plus the
    workload's other random choices.  `seen` holds every matrix handed out
    and the warm-up matrices, so no input repeats within a run and
    content-keyed caches in the program never hit by accident."""

    def __init__(self, workload, seed, seen=()):
        self.workload, self.seed = workload, seed
        self.seen = set(seen)
        self.rejected = {}

    def rng(self, round_index):
        return random.Random(f"{self.workload}:{self.seed}:{round_index}")

    def panel(self):
        return random.Random(f"{self.workload}:panel")

    def draw(self, rng, g, bound, accept, tag, limit=200000):
        """Random Seifert matrix of genus g whose det(V - t V^T) = P has
        full degree and passes `accept(V, P)`.  Rejections are counted per
        tag."""
        for _ in range(limit):
            V = random_seifert(rng, g, bound)
            P = alexander_coeffs(V)
            if len(P) == 2 * g + 1 and accept(V, P):
                return V
            self.rejected[tag] = self.rejected.get(tag, 0) + 1
        raise RuntimeError(f"no acceptable genus-{g} matrix for {tag} in {limit} draws")

    def fresh(self, rng, V):
        """A presentation of V not handed out before in this run; longer
        words of transvections after each collision, since a genus-1 matrix
        has few short ones."""
        moves = len(V) // 2
        while True:
            W = present(rng, V, moves)
            if W not in self.seen:
                self.seen.add(W)
                return W
            moves += 1


# ---------------------------------------------------------------------------
# cli: a seeded catalog and the invocations run against it

CLI_SEEDS = ("unknot", "k1", "k2", "k3", "k4", "m1", "m2", "m3", "m4", "figure-eight")
CLI_DEPTHS = tuple(range(1, 7))
CLI_TOLS = ("1e-9", "1e-20", "1e-30")
CLI_FAMILIES = {"J": "R946_op", "F": "fig8_op"}
RHO1_VALUES = (Fraction(1), Fraction(8, 3), Fraction(5, 2), Fraction(-3))
C_VALUES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def seed_facts(name):
    """(rho0, Arf, slice) of a tower seed, in closed form: the right-handed
    trefoil has rho0 = -4/3, so a k-fold sum has -4k/3 and its mirror +4k/3."""
    if name == "unknot":
        return Fraction(0), 0, True
    if name == "figure-eight":
        return Fraction(0), 1, False
    k = int(name[-1])
    sign = 1 if name.startswith("m") else -1
    return Fraction(4 * k * sign, 3), k % 2, False


def _matrix_literal(V):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in V) + "]"


def cli_catalog(seed):
    """Catalog text plus what the checks need: knot matrices by name and the
    [assign] constants.  Random knots are genus-2 with square-free orders;
    s1 is a block sum of two genus-1 knots with distinct irreducible orders."""
    rng = random.Random(f"cli:{seed}:catalog")
    knots = {}
    for k in range(1, 5):
        knots[f"k{k}"] = trefoil_sum(k)
        knots[f"m{k}"] = trefoil_sum(k, mirrored=True)
    for name in ("r1", "r2"):
        while True:
            V = random_seifert(rng, 2, 2)
            P = alexander_coeffs(V)
            if len(P) == 5 and is_square_free(P) and V != knots.get("r1"):
                break
        knots[name] = V
    a, b = rng.sample(GENUS1_IRREDUCIBLE, 2)
    knots["s1"] = block_sum(genus1_with_det(rng, a), genus1_with_det(rng, b))
    consts = {
        "rho1": rng.choice(RHO1_VALUES),
        "C": rng.choice(C_VALUES),
        "Cprime": Fraction(1, rng.choice((1, 3, 5, 7, 9))),
    }
    lines = []
    for name, V in knots.items():
        lines += [f"[knot {name}]", f"matrix = {_matrix_literal(V)}", ""]
    for fam, tpl in CLI_FAMILIES.items():
        for n in CLI_DEPTHS:
            for s in CLI_SEEDS:
                lines += [f"[expr {fam}{n}_{s}]", f"iterate {tpl} {n} {s}", ""]
    lines += ["[assign]", f"rho1(9_46) = {consts['rho1']}", f"C = {consts['C']}",
              f"Cprime = {consts['Cprime']}", ""]
    return "\n".join(lines), knots, consts


def cli_round(seed, r, catalog_path):
    """The round's invocations: each of the seven subcommands once in text
    and once in json, with arguments drawn from the run seed, then one
    repeat of an earlier invocation.  Every invocation is expected to exit 0,
    so main3 gets Arf-0 seeds and torsion odd multiples."""
    rng = random.Random(f"cli:{seed}:{r}")
    zero_arf = [s for s in CLI_SEEDS if seed_facts(s)[1] == 0]
    trefoils = [s for s in CLI_SEEDS if s[0] in "km"]
    out = []
    for fmt in ("text", "json"):
        for cmd in ("invariants", "rho0", "module", "fos", "solvable", "obstruct", "independence"):
            fam, n, s = rng.choice("JF"), rng.choice(CLI_DEPTHS), rng.choice(CLI_SEEDS)
            desc = {"cmd": cmd, "format": fmt}
            extra = []
            if cmd == "invariants":
                desc["name"] = rng.choice(trefoils + ["r1", "r2", "s1"])
            elif cmd == "rho0":
                desc["name"] = rng.choice(trefoils + ["r1", "r2"])
                desc["tol"] = rng.choice(CLI_TOLS)
                extra = ["--tol", desc["tol"]]
            elif cmd == "module":
                desc["name"] = "s1"  # a 4-submodule lattice in every run
            elif cmd in ("fos", "solvable"):
                desc["name"] = f"{fam}{n}_{s}"
            elif cmd == "obstruct":
                thm = rng.choice(("fos", "j2", "main", "main3", "torsion"))
                if thm == "main3":
                    fam, s = "J", rng.choice(zero_arf)
                elif thm == "torsion":
                    fam = "F"
                    desc["multiple"] = rng.choice((1, 3, 5))
                    extra = ["--multiple", str(desc["multiple"])]
                desc["name"], desc["theorem"] = f"{fam}{n}_{s}", thm
                extra = ["--theorem", thm] + extra
            else:
                desc["names"] = [f"J{m}_{rng.choice(CLI_SEEDS)}" for m in rng.sample(CLI_DEPTHS, 3)]
            names = desc["names"] if "names" in desc else [desc["name"]]
            target = ["--target", "rho1(9_46)"] if cmd == "independence" else []
            argv = [cmd, *names, *extra, *target, "--catalog", catalog_path, "--format", fmt]
            out.append((desc, argv))
    desc, argv = rng.choice(out)
    out.append(({**desc, "repeat_of": out.index((desc, argv))}, argv))
    return out
