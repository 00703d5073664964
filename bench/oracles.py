"""Reference computations written apart from ordtop.

Nothing here calls into the program: each function reads the plain data
that ordtop objects expose (coefficient dicts and tuples, run-length
words, below-masks, exact rationals) and recomputes an answer by a
different and simpler route, so that a wrong answer from the program
cannot be confirmed by the same code that produced it.
"""

from fractions import Fraction
from itertools import permutations, product

OEIS_A000112 = (1, 1, 2, 5, 16, 63, 318)  # posets on n unlabeled points


# --- multivariate polynomials: {exponent tuple: Fraction} -------------------

def _pad(e, width):
    return e + (0,) * (width - len(e))


def poly_width(*polys):
    return max((len(e) for p in polys for e in p), default=0)


def poly_mul(p, q):
    w = poly_width(p, q)
    out = {}
    for e1, c1 in p.items():
        e1 = _pad(e1, w)
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, _pad(e2, w)))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_sub(p, q):
    w = poly_width(p, q)
    out = {}
    for e, c in p.items():
        out[_pad(e, w)] = out.get(_pad(e, w), 0) + c
    for e, c in q.items():
        out[_pad(e, w)] = out.get(_pad(e, w), 0) - c
    return {e: c for e, c in out.items() if c}


def poly_add(p, q):
    return poly_sub(p, {e: -c for e, c in q.items()})


def poly_equal(p, q):
    return not poly_sub(p, q)


def _lowest_weight_coeff(p, m):
    """Coefficient sum on the lowest t-weight under a_j -> t^(m^(j+1))."""
    weights = {}
    for e, c in p.items():
        w = sum(k * m ** (j + 1) for j, k in enumerate(e))
        weights[w] = weights.get(w, 0) + c
    return weights[min(w for w, c in weights.items() if c)]


def substitution_sign(num, den):
    """Tower sign of num/den by the substitution a_j -> t^(M^(j+1)).

    With M above every exponent the lowest t-weight is the dominant
    monomial, and t is a positive infinitesimal.
    """
    if not num:
        return 0
    m = 2 + max(k for p in (num, den) for e in p for k in (e or (0,)))
    sgn = 1
    for p in (num, den):
        sgn *= 1 if _lowest_weight_coeff(p, m) > 0 else -1
    return sgn


def compare_oracle(a, b):
    """'LT'/'EQ'/'GT' for field elements a, b from their num/den dicts."""
    diff = poly_sub(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    s = substitution_sign(diff, poly_mul(a.den, b.den))
    return "EQ" if s == 0 else ("LT" if s < 0 else "GT")


def leading_term_oracle(a):
    """Dominant monomial of num/den, exponents as numerator minus denominator."""
    width = a.height
    m = 2 + max(k for p in (a.num, a.den) for e in p for k in (e or (0,)))

    def lead(p):
        best = min(p, key=lambda e: sum(k * m ** (j + 1) for j, k in enumerate(e)))
        return _pad(best, width), p[best]

    en, cn = lead(a.num)
    ed, cd = lead(a.den)
    return tuple(x - y for x, y in zip(en, ed)), cn / cd


# --- evaluation at rational points ---------------------------------------------

def poly_eval(p, point):
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for j, k in enumerate(e):
            if k:
                term *= point[j] ** k
        total += term
    return total


def elem_eval(a, point):
    """Value of a field element at a rational point; None on a pole."""
    d = poly_eval(a.den, point)
    if d == 0:
        return None
    return poly_eval(a.num, point) / d


def matrix_eval(m, point):
    rows = [[elem_eval(x, point) for x in row] for row in m.rows]
    if any(v is None for row in rows for v in row):
        return None
    return rows


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def rat_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def is_identity(rows):
    return all(rows[i][j] == (1 if i == j else 0)
               for i in range(len(rows)) for j in range(len(rows)))


# --- free groups: words as run-length tuples ((generator, exponent), ...) --------

def letters(word):
    out = []
    for g, e in word:
        out.extend([(g, 1 if e > 0 else -1)] * abs(e))
    return out


def free_reduce(seq):
    """Free reduction of a ±1 letter sequence with a stack."""
    stack = []
    for g, s in seq:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def free_product(words):
    seq = []
    for w in words:
        seq.extend(letters(w))
    return free_reduce(seq)


def word_len(word):
    return sum(abs(e) for _, e in word)


def free_inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


def word_key(word):
    """Compact text form of a word: a for a^1, A for a^-1 (F2 generators)."""
    return "".join(g if s > 0 else g.upper() for g, s in free_reduce(letters(word)))


def replay_sym_yes(target, sets, yes):
    """A SymYes certificate multiplies out to the target from its sets."""
    if len(yes.sigma) != yes.n or len(yes.factors) != yes.n:
        return False
    if sorted(yes.sigma) != list(range(1, yes.n + 1)):
        return False
    for idx, factor in zip(yes.sigma, yes.factors):
        if free_reduce(letters(factor)) not in {free_reduce(letters(w))
                                                for w in sets[idx - 1]}:
            return False
    return free_product(yes.factors) == free_reduce(letters(target))


def _brute_products(sets, horizon):
    lsets = [[letters(w) for w in s] for s in sets]
    for n in range(1, horizon + 1):
        for perm in permutations(range(n)):
            for choice in product(*(lsets[i] for i in perm)):
                seq = []
                for part in choice:
                    seq.extend(part)
                yield "".join(g if s > 0 else g.upper() for g, s in free_reduce(seq))


def brute_sym(sets, horizon):
    """All words b_sigma(1) ... b_sigma(n), sigma a permutation of 1..n <= horizon.

    Words come back as word_key strings.
    """
    return set(_brute_products(sets, horizon))


def brute_member(target, sets, horizon):
    """Whether some product of brute_sym equals the target, stopping early."""
    key = word_key(target)
    return any(w == key for w in _brute_products(sets, horizon))


def length_bound(sets):
    """No product of at most len(sets) factors is longer than this."""
    return sum(max((word_len(w) for w in s), default=0) for s in sets)


def abelian_vector(word):
    acc = {}
    for g, e in word:
        acc[g] = acc.get(g, 0) + e
    return frozenset((g, e) for g, e in acc.items() if e)


def abelian_reachable(pools):
    """Sums with one summand (or none) from each pool, as vectors."""
    reach = {frozenset()}
    for pool in pools:
        vecs = [abelian_vector(w) for w in pool]
        nxt = set(reach)
        for s in reach:
            for v in vecs:
                acc = dict(s)
                for g, e in v:
                    acc[g] = acc.get(g, 0) + e
                nxt.add(frozenset((g, e) for g, e in acc.items() if e))
        reach = nxt
    return reach


# --- univariate rational functions: coefficient tuples, lowest degree first -------

def upoly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _utrim(out)


def upoly_add(a, b):
    n = max(len(a), len(b))
    return _utrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def upoly_neg(a):
    return tuple(-c for c in a)


def _utrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def upoly_eval(a, n):
    out = Fraction(0)
    for c in reversed(a):
        out = out * n + c
    return out


def root_bound(*polys):
    """An integer beyond every real root of the given polynomials.

    Cauchy: every root z of c_0 + ... + c_d n^d has |z| < 1 + max|c_i / c_d|.
    """
    bound = 0
    for a in polys:
        a = _utrim(a)
        if len(a) > 1:
            lead = abs(a[-1])
            bound = max(bound, 2 + int(max(abs(c) for c in a[:-1]) / lead))
    return bound


def seq_value(seq, n):
    """Direct evaluation of an eventual sequence at index n."""
    if n < len(seq.prefix):
        return seq.prefix[n]
    return upoly_eval(seq.tail.num, n) / upoly_eval(seq.tail.den, n)


def tail_difference(x, y):
    """Numerator and denominator of x.tail - y.tail."""
    num = upoly_add(upoly_mul(x.tail.num, y.tail.den),
                    upoly_neg(upoly_mul(y.tail.num, x.tail.den)))
    return num, upoly_mul(x.tail.den, y.tail.den)


def eventual_compare(x, y):
    """Order of x and y on a cofinite set, from values past a root bound."""
    num, den = tail_difference(x, y)
    if not num:
        return "EQ"
    n = root_bound(num, den) + len(x.prefix) + len(y.prefix)
    v = upoly_eval(num, n) / upoly_eval(den, n)
    return "LT" if v < 0 else "GT"


def star_checkpoints(x, y, extra=0):
    """Indices that pin down min(|x_n - y_n|, 1) as a sequence.

    Every index below the settle point, then enough indices past a root
    bound of (x - y) and of (x - y) -+ 1 that two rational functions of
    the degrees involved agreeing there agree forever.
    """
    num, den = tail_difference(x, y)
    bound = root_bound(num, den, upoly_add(num, den),
                       upoly_add(num, upoly_neg(den)))
    start = max(bound, len(x.prefix), len(y.prefix), extra)
    degree = 2 * (len(num) + len(den) + 2)
    return list(range(start)) + list(range(start, start + degree))


def capped_distance(x, y, n):
    d = abs(seq_value(x, n) - seq_value(y, n))
    return d if d < 1 else Fraction(1)


# --- finite orders ----------------------------------------------------------------

def masks_are_poset(below):
    n = len(below)
    for x in range(n):
        if not below[x] >> x & 1:
            return False
        for y in range(n):
            if y != x and below[x] >> y & 1:
                if below[y] >> x & 1:
                    return False  # antisymmetry
                if below[y] & ~below[x]:
                    return False  # transitivity
    return True


def tukey_oracle(below, g):
    """f(x) = 1 + max{eta : g(eta) <= x}, capped, from below-masks."""
    tau = len(g)
    raw = {}
    for x in range(len(below)):
        etas = [eta for eta in range(tau) if below[x] >> g[eta] & 1]
        raw[x] = 1 + max(etas) if etas else 0
    mapping = {x: min(v, tau - 1) for x, v in raw.items()}
    overflow = frozenset(x for x, v in raw.items() if v == tau)
    monotone = all(mapping[y] <= mapping[x]
                   for x in range(len(below)) for y in range(len(below))
                   if below[x] >> y & 1)
    witnesses = [mapping[x] for x in mapping if x not in overflow]
    cofinal = bool(witnesses) and max(witnesses) == tau - 1
    return mapping, overflow, monotone, cofinal


def prefix_code(bits):
    # '' -> 0, '0' -> 1, '1' -> 2, '00' -> 3, ...
    return (1 << len(bits)) - 1 + (int(bits, 2) if bits else 0)


def branch_bits(preperiod, period, count):
    out = []
    for i in range(count):
        out.append(preperiod[i] if i < len(preperiod)
                   else period[(i - len(preperiod)) % len(period)])
    return "".join(out)


def join_codes(branches, depth):
    return frozenset(prefix_code(branch_bits(b.preperiod, b.period, k))
                     for b in branches for k in range(depth + 1))


# --- metric entourages on {0} u {1/n} ------------------------------------------------

def distance_to_piece(x, y, piece):
    return min(max(abs(x - k), abs(y - k)) for k in piece)


def u_alpha_oracle(pieces, alpha_values, x, y):
    if x == y:
        return True
    return any(distance_to_piece(x, y, piece) < Fraction(1, 2 ** a)
               for piece, a in zip(pieces, alpha_values))


def piece_slack(piece, radii):
    """Largest r with every (k, k) ball of radius r inside the target."""
    return min(max(r - abs(k - p) for p, r in radii.items()) for k in piece)
