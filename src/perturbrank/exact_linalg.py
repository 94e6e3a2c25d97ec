"""Exact linear algebra over the rationals.

A ``RationalMatrix`` is an immutable dense row-major matrix held as integer
rows ``num`` over one positive denominator ``den``, in canonical form:
``gcd(den, *num) == 1``, so equal values have equal fields.  This module
alone decides that representation: other modules build matrices from
rows of exact entries (rows of plain ints are taken over ``den = 1`` as
they stand, with no per-entry conversion), hold vectors as ``1 x n`` rows
or ``n x 1`` columns, and combine them with ``+``, ``-``, ``@``,
``transpose``, ``row``, ``scale``, ``scale_columns`` and three fused
kernels, which all run on the integer rows: ``null_pair``, the checked
and normalized null pair of A read off adj(A); ``center``, the column
c = X diag(l) rᵀ with X - c 1ᵀ; and the symmetric congruence
``sym_congruence``, X (C + Cᵀ) Xᵀ with C = diag(l) g diag(r).  Each
kernel brings each of its results to canonical form once.  Products
compute each integer dot product as ``sum(map(mul, row, col))``.  Rank,
kernels and the inertia run one forward fraction-free (Bareiss)
elimination, which updates only the rows below each pivot; a kernel then
back-substitutes each free column, fraction-free, on the echelon rows it
leaves.  It runs on the integer rows, for rank and kernels each divided
by the gcd of its entries.  ``inertia`` runs its symmetric mode, in which
every step is a congruence, and counts the sign changes of its pivots.
The Hurwitz test reads the leading Hurwitz minors off the fraction-free
Routh rows, two short rows per step.  The characteristic polynomial, the
adjugate and the inverse (or, at a simple zero root, the group inverse)
come from one Faddeev-LeVerrier recurrence on ``num``, whose last step
forms only the diagonal it reads; no linear system is solved by
elimination.  A screen that grows a rank one row at a time keeps plain
integer echelon rows and reduces each new row against them with
``echelon_reduce``.  So intermediate values stay integral and every
division is checked to be exact.  The characteristic polynomial's
coefficients come back as one ``1 x (n + 1)`` row, which
``hurwitz_stable`` reads as it stands.
``to_strings`` writes the entries as ``"p"``/``"p/q"`` strings straight
off the integer rows (``rational_str``), and ``sign`` and ``zero_free``
answer the screens on entries from them, so a ``fractions.Fraction`` is
built only where an entry leaves the module as a number, ``m[i, j]``.
Nothing here is approximate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

_EXACT = (int, Fraction)

#: Dense exact charpoly is quartic in the dimension; refuse silly sizes.
CHARPOLY_SIZE_LIMIT = 32

#: Decimal digits an instance file may spend on the numerators and
#: denominators of all entries of A and D together.  Measured on Markov
#: generators for n = 2..8 (distinct random denominators, or one large
#: entry of A or D), no entry of h1, h1_star, v, G, M or a kernel
#: direction has more than twice that total (M is quadratic in D), so
#: every output entry stays under the 4300 digits that CPython's
#: ``str(int)`` converts; generated instances spend at most about 1100.
INSTANCE_DIGIT_LIMIT = 2000

__all__ = [
    "CHARPOLY_SIZE_LIMIT",
    "RationalMatrix",
    "SizeLimitExceeded",
    "as_rational",
    "charpoly_adjugate",
    "echelon_reduce",
    "hurwitz_stable",
    "inertia",
    "nullspace",
    "rank_exact",
    "rational_str",
]


class SizeLimitExceeded(ValueError):
    """Input is larger than the guard for dense exact computation."""


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, an exact ``"p"``/``"p/q"`` string, or a Fraction.

    Floats are rejected on purpose: silently rationalizing binary floats
    would defeat the point of an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rational_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den > 0``, without the Fraction:
    ``"p"`` or ``"p/q"`` in lowest terms, reduced with one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class RationalMatrix:
    """Immutable dense rational matrix: integer rows ``num`` over ``den``.

    Construct from an iterable of rows; entries may be ints, ``"p/q"``
    strings or Fractions.  ``den > 0`` and ``gcd(den, *num) == 1``.  Treat
    instances as frozen values.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: Iterable[Sequence[int | str | Fraction]]):
        data = tuple(map(tuple, rows))
        # rows of ints (not bools) are canonical over den = 1 as they stand
        ints = set(map(type, chain.from_iterable(data))) == {int}
        if not ints:
            # ints and Fractions already carry the numerator and denominator
            data = [[x if type(x) in _EXACT else as_rational(x) for x in row] for row in data]
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        if ints:
            num, den = data, 1
        else:
            # over the lcm of reduced denominators, the gcd with den is already 1
            den = lcm(*(x.denominator for row in data for x in row))
            num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data)
        self.rows = len(data)
        self.cols = width
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num: Sequence[Sequence[int]], den: int) -> "RationalMatrix":
        """Trusted constructor from rectangular integer rows over a nonzero
        ``den``; it only brings the pair to canonical form."""
        # den = 1 is already canonical; otherwise one C-level gcd per row
        g = 1 if den == 1 else gcd(den, *[gcd(*row) for row in num])
        if den < 0:
            g = -g
        if g != 1:
            num = [[x // g for x in row] for row in num]
        obj = object.__new__(cls)
        obj.num = tuple(map(tuple, num))
        obj.den = den // g
        obj.rows = len(obj.num)
        obj.cols = len(obj.num[0])
        return obj

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._make([[int(i == j) for j in range(n)] for i in range(n)], 1)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def sign(self, i: int, j: int) -> int:
        """The sign of entry (i, j), -1, 0 or 1, read off its numerator
        (``den > 0``) without building a Fraction."""
        x = self.num[i][j]
        return (x > 0) - (x < 0)

    def zero_free(self) -> bool:
        """True iff no entry is zero, read off the integer rows."""
        return not any(0 in row for row in self.num)

    def row(self, i: int) -> "RationalMatrix":
        """Row i as a ``1 x cols`` matrix."""
        return RationalMatrix._make((self.num[i],), self.den)

    def columns(self, start: int) -> "RationalMatrix":
        """Columns start, ..., cols - 1 as a ``rows x (cols - start)`` matrix."""
        return RationalMatrix._make([row[start:] for row in self.num], self.den)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._make(tuple(zip(*self.num)), self.den)

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        """self + sign·other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return RationalMatrix._make(
            [[fa * a + fb * b for a, b in zip(ra, rb)] for ra, rb in zip(self.num, other.num)],
            den,
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def scale(self, c: int | str | Fraction) -> "RationalMatrix":
        """``c * self``, on the integer rows."""
        if type(c) not in _EXACT:
            c = as_rational(c)
        p = c.numerator
        return RationalMatrix._make(
            [[p * x for x in row] for row in self.num], self.den * c.denominator
        )

    def scale_columns(self, w: "RationalMatrix") -> "RationalMatrix":
        """``self @ diag(w)`` for a ``1 x cols`` row w: column j times w[0, j]."""
        if (w.rows, w.cols) != (1, self.cols):
            raise ValueError(f"{w.rows}x{w.cols} column scales for {self.cols} columns")
        (scales,) = w.num
        return RationalMatrix._make(
            [list(map(mul, row, scales)) for row in self.num], self.den * w.den
        )

    def null_pair(self, adj: "RationalMatrix") -> tuple["RationalMatrix", "RationalMatrix"]:
        """The null pair of A = self read off a rank-one adj = adj(A), as
        ``1 x n`` rows ``(h1, h1_star)``.

        One pass on the integer rows: r is the first nonzero column and l
        the first nonzero row of ``adj.num``; A r = 0, then l A = 0, are
        checked as integer dot products (``ArithmeticError`` otherwise).
        h1 = r / r_lead, r_lead the first nonzero entry of r, and
        h1_star = l · r_lead / (r · l), so first-nonzero(h1) = 1 and
        (h1, h1_star) = 1; the scale of adj cancels from both.
        """
        a, b = self.num, adj.num
        r = next(col for col in zip(*b) if any(col))
        if any(sum(map(mul, row, r)) for row in a):
            raise ArithmeticError("adjugate column is not a right null vector of A")
        l = next(row for row in b if any(row))
        if any(sum(map(mul, l, col)) for col in zip(*a)):
            raise ArithmeticError("adjugate row is not a left null vector of A")
        lead = next(x for x in r if x)
        pairing = sum(map(mul, r, l))
        if not pairing:
            raise ZeroDivisionError("adjugate column and row pair to zero")
        return (
            RationalMatrix._make((r,), lead),
            RationalMatrix._make(([lead * x for x in l],), pairing),
        )

    def center(
        self, l: "RationalMatrix", r: "RationalMatrix"
    ) -> tuple["RationalMatrix", "RationalMatrix"]:
        """``(c, X - c 1ᵀ)`` for X = self and the ``rows x 1`` column
        c = X diag(l) rᵀ, with l and r ``1 x cols`` rows.

        One pass on the integer rows over the one denominator of c, and
        one canonical form for each result.
        """
        n = self.cols
        if (l.rows, l.cols, r.rows, r.cols) != (1, n, 1, n):
            raise ValueError(f"{l.rows}x{l.cols} and {r.rows}x{r.cols} weights for {n} columns")
        w = list(map(mul, l.num[0], r.num[0]))
        f = l.den * r.den
        c = [sum(map(mul, row, w)) for row in self.num]
        den = self.den * f
        return (
            RationalMatrix._make([(x,) for x in c], den),
            RationalMatrix._make([[f * x - ci for x in row] for row, ci in zip(self.num, c)], den),
        )

    def sym_congruence(
        self, l: "RationalMatrix", g: "RationalMatrix", r: "RationalMatrix"
    ) -> "RationalMatrix":
        """``X (C + Cᵀ) Xᵀ`` for X = self and C = diag(l) g diag(r), with l
        and r ``1 x cols`` rows and g a ``cols x cols`` matrix.

        One pass on the integer rows: the symmetric S = C + Cᵀ, the rows of
        X S (row j of S is its column j), then the upper triangle of
        (X S) Xᵀ, mirrored; the result is brought to canonical form once.
        """
        n = self.cols
        if (l.rows, l.cols, r.rows, r.cols, g.rows, g.cols) != (1, n, 1, n, n, n):
            raise ValueError(
                f"{l.rows}x{l.cols}, {g.rows}x{g.cols} and {r.rows}x{r.cols} "
                f"factors for {n} columns"
            )
        (left,), (right,) = l.num, r.num
        c = [[a * x for x in map(mul, row, right)] for a, row in zip(left, g.num)]
        s = [[a + b for a, b in zip(row, col)] for row, col in zip(c, zip(*c))]
        x = self.num
        xs = [[sum(map(mul, row, col)) for col in s] for row in x]
        k = self.rows
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                m[i][j] = m[j][i] = sum(map(mul, xs[i], x[j]))
        return RationalMatrix._make(m, self.den * self.den * l.den * g.den * r.den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = list(zip(*other.num))
        return RationalMatrix._make(
            [[sum(map(mul, row, col)) for col in cols] for row in self.num],
            self.den * other.den,
        )

    def to_strings(self) -> list[list[str]]:
        """The entries as ``str(self[i, j])`` writes them, ``"p"`` or
        ``"p/q"`` in lowest terms, without building a Fraction."""
        den = self.den
        if den == 1:
            return [list(map(str, row)) for row in self.num]
        return [[rational_str(x, den) for x in row] for row in self.num]

    def to_float(self) -> list[list[float]]:
        # int / int is correctly rounded, so this is float(self[i, j])
        return [[x / self.den for x in row] for row in self.num]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(row) for row in self.to_strings())
        return f"RationalMatrix[{body}]"


def _primitive_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Each integer row divided by the gcd of its entries (a zero row stays)."""
    return [[x // g for x in row] if (g := gcd(*row)) > 1 else list(row) for row in rows]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free step produced a non-integer")
    return q


def _forward(
    a: list[list[int]], symmetric: bool = False
) -> tuple[list[int], list[int], int]:
    """Forward fraction-free (Bareiss) elimination of integer rows, in place.

    Pivots are the first nonzero entry in the current column; each step
    updates the rows below the pivot, right of its column, as
    (p·row - f·pivot_row) / previous pivot, a division that is exact and
    checked to be (Bareiss, Math. Comp. 1968).  Returns the pivot columns
    pc_k, the pivot values and the number of row swaps; without swaps, the
    k-th pivot value is the k-th leading principal minor of the input
    rows.  Afterwards row k of ``a`` is final from column pc_k on, and its
    entries left of pc_k are stale.

    With ``symmetric`` (a square symmetric ``a``) every step is a
    congruence: the pivot is the first nonzero entry of the trailing
    diagonal, brought to (k, k) by swapping its row and its column; when
    that diagonal is all zero but some a_ij (i < j) is not, row j is first
    added to row i and column j to column i, which makes the diagonal entry
    a_ii + 2 a_ij + a_jj = 2 a_ij.  Every entry is a minor bordered linearly
    by its row and column, so the divisions stay exact.  The elimination
    stops at an all-zero trailing block, and the k-th pivot value is then
    the k-th leading principal minor of a matrix congruent to ``a``.
    """
    n_rows = len(a)
    pivot_cols: list[int] = []
    pivot_vals: list[int] = []
    swaps = 0
    prev = 1
    for col in range(len(a[0])):
        k = len(pivot_cols)
        if k == n_rows:
            break
        if symmetric:
            pivot_row = next((r for r in range(k, n_rows) if a[r][r] != 0), None)
            if pivot_row is None:
                ij = next(
                    ((i, j) for i in range(k, n_rows) for j in range(i + 1, n_rows) if a[i][j]),
                    None,
                )
                if ij is None:
                    break
                pivot_row, j = ij
                a[pivot_row] = [x + y for x, y in zip(a[pivot_row], a[j])]
                for row in a:
                    row[pivot_row] += row[j]
            if pivot_row != k:
                for row in a:
                    row[k], row[pivot_row] = row[pivot_row], row[k]
        else:
            pivot_row = next((r for r in range(k, n_rows) if a[r][col] != 0), None)
            if pivot_row is None:
                continue
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            swaps += 1
        p = a[k][col]
        top = a[k][col + 1 :]
        for r in range(k + 1, n_rows):
            row = a[r]
            f = row[col]
            # a pair of zeros updates to zero; skip its division
            row[col + 1 :] = [
                _exact_div(p * x - f * y, prev) if x or y else 0
                for x, y in zip(row[col + 1 :], top)
            ]
        pivot_cols.append(col)
        pivot_vals.append(p)
        prev = p
    return pivot_cols, pivot_vals, swaps


def rank_exact(m: RationalMatrix) -> int:
    """Rank over the rationals: the pivot count of the forward elimination."""
    pivot_cols, _, _ = _forward(_primitive_rows(m.num))
    return len(pivot_cols)


def nullspace(m: RationalMatrix) -> list[RationalMatrix]:
    """Exact kernel basis as ``1 x cols`` rows, each scaled so its first
    nonzero entry is 1; ``[]`` when m has full column rank.

    Solves m·v = 0; the left kernel vᵀ·m = 0 is ``nullspace(m.transpose())``.
    Basis rows are ordered by their free column, ascending, which makes
    the output deterministic.  One forward elimination of the primitive
    rows, then, per free column f, a fraction-free back substitution on
    the final entries of the echelon rows: v[f] = d, the last pivot, and
    bottom up, for each pivot column pc < f, v[pc] = -(row[pc+1:]·v[pc+1:])
    / row[pc].  d·v is integral for the reduced-echelon kernel vector v
    (Cramer's rule), so every division is exact, and checked to be.
    """
    a = _primitive_rows(m.num)
    pivot_cols, pivot_vals, _ = _forward(a)
    d = pivot_vals[-1] if pivot_vals else 1
    echelon = list(zip(pivot_cols, pivot_vals, a))[::-1]
    basis: list[RationalMatrix] = []
    for free in sorted(set(range(m.cols)) - set(pivot_cols)):
        v = [0] * m.cols
        v[free] = d
        for pc, p, row in echelon:
            if pc < free:
                v[pc] = -_exact_div(sum(map(mul, row[pc + 1 :], v[pc + 1 :])), p)
        basis.append(RationalMatrix._make((v,), next(x for x in v if x != 0)))
    return basis


def echelon_reduce(echelon: Sequence[Sequence[int]], row: Sequence[int]) -> list[int]:
    """Reduce an integer row against echelon rows; return the primitive residual.

    Each row of ``echelon`` is nonzero and zero at the leading column of
    every row before it, which a list of appended nonzero residuals of
    this function is.  Each step cancels the row's entry at one leading
    column, fraction-free (r -> p·r - f·e), so the residual is zero
    exactly when the row lies in the rational span of ``echelon``, and a
    rank screen grows by one row without re-eliminating the rows it kept.
    """
    r = list(row)
    for e in echelon:
        lead = next(j for j, x in enumerate(e) if x)
        if f := r[lead]:
            p = e[lead]
            r = [p * x - f * y for x, y in zip(r, e)]
    return _primitive_rows((r,))[0]


def charpoly_adjugate(
    m: RationalMatrix,
) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix | None]:
    """Coefficients of det(λI - m), ascending, adj(m) and the group
    inverse of m, by one Faddeev-LeVerrier recurrence.

    The coefficients are one ``1 x (n + 1)`` row that ends in the
    leading 1, over the common denominator d^n.  The
    recurrence runs on the integer matrix B = m.num = d·m, with d = m.den
    (one common multiplier, so B's polynomial is the same one rescaled):
    B_1 = B, c_k = -tr(B_k) / k, an exact integer division, and
    B_(k+1) = B·N_k with N_k = B_k + c_k I, N_0 = I.  The coefficient of
    λ^(n-k) in the polynomial of m is then c_k / d^k.  Cayley-Hamilton
    gives B·N_(n-1) = -c_n I, so adj(B) = (-1)^(n-1)·N_(n-1) and
    adj(m) = adj(B) / d^(n-1).  Since c_n needs only tr(B_n), the last
    step forms the diagonal of B·N_(n-1) alone, so the pass makes n - 2
    full products.

    adj(λI - B) = Σ_k λ^(n-1-k) N_k, so the resolvent of B near λ = 0 is
    N_(n-1) / c_n + O(λ) when c_n != 0, and N_(n-1) / (c_(n-1) λ) +
    (c_(n-1) N_(n-2) - c_(n-2) N_(n-1)) / c_(n-1)² + O(λ) when zero is a
    simple root (N_(-1) = 0, c_(-1) = 0); its constant term is -B⁻¹, or
    -B# for the group inverse B# (Campbell & Meyer, 1979).  The third
    item is d·B#: m⁻¹ = adj(m) / det(m) when zero is not a root, the
    group inverse when it is a simple root, and None otherwise.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n > CHARPOLY_SIZE_LIMIT:
        raise SizeLimitExceeded(f"matrix size {n} exceeds limit {CHARPOLY_SIZE_LIMIT}")
    b, d = m.num, m.den
    c = [1]  # c_0, ..., c_n
    bk = [list(row) for row in b]
    trace = sum(b[i][i] for i in range(n))  # tr B_k
    # N_(k-1) and N_k
    prev, adj = [[0] * n for _ in range(n)], RationalMatrix.identity(n).num
    for k in range(1, n + 1):
        c.append(_exact_div(-trace, k))
        if k < n:
            for i in range(n):
                bk[i][i] += c[k]
            prev, adj = adj, bk
            cols = list(zip(*bk))
            if k < n - 1:
                bk = [[sum(map(mul, row, col)) for col in cols] for row in b]
                trace = sum(bk[i][i] for i in range(n))
            else:  # c_n reads only the diagonal of B_n = B·N_(n-1)
                trace = sum(sum(map(mul, row, col)) for row, col in zip(b, cols))
    # the coefficient of λ^(n-k) is c_k / d^k = c_k d^(n-k) / d^n
    coeffs = RationalMatrix._make(
        [[ck * d ** (n - k) for k, ck in reversed(list(enumerate(c)))]], d**n
    )
    a1, a2 = c[n - 1], c[n - 2] if n > 1 else 0
    if c[n]:
        inverse = RationalMatrix._make([[-d * x for x in row] for row in adj], c[n])
    elif a1:
        inverse = RationalMatrix._make(
            [[d * (a2 * x - a1 * y) for x, y in zip(r0, r1)] for r0, r1 in zip(adj, prev)],
            a1 * a1,
        )
    else:
        inverse = None
    # the sign (-1)^(n-1) rides on the denominator
    return coeffs, RationalMatrix._make(adj, (-d) ** (n - 1)), inverse


def inertia(m: RationalMatrix) -> tuple[int, int, int]:
    """``(n_pos, n_zero, n_neg)``: how many eigenvalues of the symmetric
    matrix m are positive, zero and negative.

    One symmetric fraction-free elimination of the integer rows (the
    ``symmetric`` mode of the forward kernel) gives the nonzero leading
    principal minors d_1, ..., d_r of a matrix congruent to m and leaves
    its trailing block zero, so n_zero = rows - r, and n_neg is the number
    of sign changes in 1, d_1, ..., d_r (Jacobi's rule and Sylvester's law
    of inertia).  ``ValueError`` unless m is square and symmetric.
    """
    if m.num != tuple(zip(*m.num)):
        raise ValueError(f"inertia of a {m.rows}x{m.cols} matrix that is not symmetric")
    _, pivots, _ = _forward([list(row) for row in m.num], symmetric=True)
    n_neg = sum((p < 0) != (q < 0) for p, q in zip([1, *pivots], pivots))
    return len(pivots) - n_neg, m.rows - len(pivots), n_neg


def _routh_column(desc: Sequence[int]) -> list[int]:
    """The leading Hurwitz minors Δ_1, Δ_2, ... of the integer polynomial
    with descending coefficients ``desc`` (``desc[0] > 0``, degree n >= 1),
    up to the first one <= 0 or to Δ_n.

    Fraction-free Routh: R_0 and R_1 are the even- and odd-indexed
    coefficients, and each step forms only the next row,
    R_(k+1)[j] = (R_k[0]·R_(k-1)[j+1] - R_(k-1)[0]·R_k[j+1]) / Δ_(k-2),
    with Δ_(-1) = Δ_0 = 1 and absent entries 0, a division that is exact
    and checked to be.  Then R_k[0] = Δ_k, in O(n²) steps for the O(n³)
    of eliminating the n x n Hurwitz matrix.
    """
    n = len(desc) - 1
    upper, lower = desc[0::2], desc[1::2]
    column: list[int] = []
    before = last = 1  # Δ_(k-2) and Δ_(k-1)
    for k in range(1, n + 1):
        lead = lower[0]
        column.append(lead)
        if lead <= 0 or k == n:
            break
        top = upper[0]
        upper, lower = lower, [
            _exact_div(lead * u - top * l, before)
            for u, l in zip_longest(upper[1:], lower[1:], fillvalue=0)
        ]
        before, last = last, lead
    return column


def hurwitz_stable(coeffs: RationalMatrix) -> bool:
    """True iff every root of the polynomial whose ascending coefficients
    are the ``1 x m`` row ``coeffs`` has strictly negative real part.

    Trailing zero coefficients are dropped; ``ValueError`` is raised
    when nothing is left.  Classical Hurwitz-determinant criterion,
    evaluated exactly: after normalizing the leading coefficient
    positive, all leading principal minors of the Hurwitz matrix must be
    strictly positive.  The fraction-free Routh rows give them all as
    their first entries (``_routh_column``), so the test is: n entries,
    the last one positive.  A nonzero constant has no roots and counts as
    stable.
    """
    if coeffs.rows != 1:
        raise ValueError(f"{coeffs.rows}x{coeffs.cols} coefficients, expected one row")
    # the integer row is a positive multiple of the polynomial
    desc = coeffs.num[0][::-1]
    lead = next((i for i, c in enumerate(desc) if c), None)
    if lead is None:
        raise ValueError("the zero polynomial has no stability verdict")
    desc = desc[lead:]
    n = len(desc) - 1
    if n == 0:
        return True
    if desc[0] < 0:
        desc = [-c for c in desc]  # desc[0] > 0 leads
    column = _routh_column(desc)
    return len(column) == n and column[-1] > 0
