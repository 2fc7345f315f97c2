"""Exact dense linear algebra over any field object from `scalars`.

Matrices are small (desk scale) and immutable by convention; entries are
field elements supporting Python arithmetic operators.

The kernels (products, elimination, `Span`) are sparse in what they
visit: they test an entry for zero by its truth value, as the `scalars`
contract allows, and skip the terms with a zero factor.  Exact sums do
not depend on the order of their terms, so every result is the value the
dense loops give.  Public `Mat(...)` copies its rows and rejects ragged
ones; `Mat._own` is the internal, trusted constructor for row lists the
kernels have just built, and takes them without copying or checking.

Elimination is owned by the field where the field has a kernel of its
own: over Q, `Mat.rref` (and with it `kernel`, `rank`, `solve` and
`inv`) runs on integer rows in `scalars.Rationals.rref` and returns the
unique reduced row echelon form, its entries `int` when integral.  F_p
and k(x) use the Gauss-Jordan loop of `Mat.rref`.
"""

from __future__ import annotations


class Mat:
    """Dense matrix over an exact field."""

    __slots__ = ("field", "m", "n", "rows")

    def __init__(self, field, rows, ncols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else (ncols or 0)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("ragged matrix")

    @staticmethod
    def _own(field, rows, n: int) -> "Mat":
        """Trusted constructor: `rows` are fresh lists of length n that the
        new matrix takes over without a copy or a check."""
        M = object.__new__(Mat)
        M.field = field
        M.rows = rows
        M.m = len(rows)
        M.n = n
        return M

    # -- constructors --------------------------------------------------
    @staticmethod
    def zeros(field, m: int, n: int) -> "Mat":
        z = field.zero
        return Mat._own(field, [[z] * n for _ in range(m)], n)

    @staticmethod
    def eye(field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return Mat._own(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_cols(field, cols, m: int | None = None) -> "Mat":
        if not cols:
            return Mat.zeros(field, m or 0, 0)
        m = len(cols[0])
        return Mat._own(field, [[col[i] for col in cols] for i in range(m)], len(cols))

    # -- basic ops -----------------------------------------------------
    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def col(self, j):
        return [self.rows[i][j] for i in range(self.m)]

    def cols(self):
        return [self.col(j) for j in range(self.n)]

    def __add__(self, other: "Mat") -> "Mat":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in addition")
        return Mat._own(self.field, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.n)

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in subtraction")
        return Mat._own(self.field, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.n)

    def __neg__(self) -> "Mat":
        return Mat._own(self.field, [[-a for a in r] for r in self.rows], self.n)

    def scale(self, c) -> "Mat":
        return Mat._own(self.field, [[a * c for a in r] for r in self.rows], self.n)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.m}x{self.n} * {other.m}x{other.n}")
        return self._times(other._row_pairs(), other.n)

    def _row_pairs(self):
        """The nonzero (j, b) of each row: a right factor of `_times`."""
        return [[(j, b) for j, b in enumerate(r) if b] for r in self.rows]

    def _times(self, onz, n: int) -> "Mat":
        """self times the matrix with n columns whose `_row_pairs` are onz;
        a caller that multiplies by one factor many times builds them once."""
        z = self.field.zero
        out = []
        for r in self.rows:
            row = [z] * n
            for a, pairs in zip(r, onz):
                if a:
                    for j, b in pairs:
                        row[j] = row[j] + a * b
            out.append(row)
        return Mat._own(self.field, out, n)

    def apply(self, v):
        """Matrix times column vector (a plain list)."""
        z = self.field.zero
        vnz = [(k, x) for k, x in zip(range(self.n), v) if x]
        out = []
        for r in self.rows:
            acc = z
            for k, x in vnz:
                a = r[k]
                if a:
                    acc = acc + a * x
            out.append(acc)
        return out

    def T(self) -> "Mat":
        return Mat._own(self.field, [[self.rows[i][j] for i in range(self.m)] for j in range(self.n)], self.m)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.m == other.m
            and self.n == other.n
            and all(a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2))
        )

    def __hash__(self):
        return hash((self.m, self.n, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.rows) + "]"

    def map(self, f) -> "Mat":
        return Mat._own(self.field, [[f(a) for a in r] for r in self.rows], self.n)

    def cast(self, field, embed) -> "Mat":
        """Re-coefficient the matrix through an embedding of scalars."""
        return Mat._own(field, [[embed(a) for a in r] for r in self.rows], self.n)

    # -- block ops -------------------------------------------------------
    @staticmethod
    def hstack(field, mats) -> "Mat":
        mats = [m for m in mats]
        if not mats:
            return Mat.zeros(field, 0, 0)
        m = mats[0].m
        n = sum(mat.n for mat in mats)
        return Mat._own(field, [[a for mat in mats for a in mat.rows[i]] for i in range(m)], n)

    @staticmethod
    def block_diag(field, mats) -> "Mat":
        m = sum(x.m for x in mats)
        n = sum(x.n for x in mats)
        out = Mat.zeros(field, m, n)
        i0 = j0 = 0
        for x in mats:
            for i in range(x.m):
                for j in range(x.n):
                    out.rows[i0 + i][j0 + j] = x.rows[i][j]
            i0 += x.m
            j0 += x.n
        return out

    # -- elimination -----------------------------------------------------
    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns).  A field
        that owns an elimination kernel (`rref(rows, n)`; over Q,
        `Rationals.rref` on integer rows) does the work; over any other
        field it is the Gauss-Jordan loop below."""
        own = getattr(self.field, "rref", None)
        if own is not None:
            R, pivots = own(self.rows, self.n)
            return Mat._own(self.field, R, self.n), pivots
        R = [list(r) for r in self.rows]
        m, inv_of = self.m, self.field.inv
        pivots = []
        pr = 0
        for c in range(self.n):
            if pr >= m:
                break
            pivot = next((r for r in range(pr, m) if R[r][c]), None)
            if pivot is None:
                continue
            R[pr], R[pivot] = R[pivot], R[pr]
            prow = R[pr]
            inv = inv_of(prow[c])
            # scale the pivot row, then clear column c along its nonzero pairs
            pairs = [(j, a * inv) for j, a in enumerate(prow) if a]
            for j, a in pairs:
                prow[j] = a
            for r in range(m):
                row = R[r]
                f = row[c]
                if f and r != pr:
                    for j, b in pairs:
                        row[j] = row[j] - f * b
            pivots.append(c)
            pr += 1
        return Mat._own(self.field, R, self.n), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right kernel as a list of column vectors."""
        R, pivots = self.rref()
        z, o = self.field.zero, self.field.one
        free = [c for c in range(self.n) if c not in pivots]
        basis = []
        for fc in free:
            v = [z] * self.n
            v[fc] = o
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][fc]
            basis.append(v)
        return basis

    def solve(self, b):
        """One solution x of self * x = b (b a list), or None."""
        aug = Mat._own(self.field, [self.rows[i] + [b[i]] for i in range(self.m)], self.n + 1)
        R, pivots = aug.rref()
        z = self.field.zero
        if self.n in pivots:
            return None
        x = [z] * self.n
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][self.n]
        return x

    def inv(self) -> "Mat":
        if self.m != self.n:
            raise ValueError("inverse of non-square matrix")
        aug = Mat.hstack(self.field, [self, Mat.eye(self.field, self.n)])
        R, pivots = aug.rref()
        if pivots != list(range(self.n)):
            raise ZeroDivisionError("singular matrix")
        return Mat._own(self.field, [r[self.n:] for r in R.rows], self.n)

    def is_invertible(self) -> bool:
        return self.m == self.n and self.rank() == self.n

    def det(self):
        if self.m != self.n:
            raise ValueError("determinant of non-square matrix")
        R = [list(r) for r in self.rows]
        z = self.field.zero
        det = self.field.one
        for c in range(self.n):
            pivot = next((r for r in range(c, self.n) if R[r][c]), None)
            if pivot is None:
                return z
            if pivot != c:
                R[c], R[pivot] = R[pivot], R[c]
                det = -det
            det = det * R[c][c]
            inv = self.field.inv(R[c][c])
            for r in range(c + 1, self.n):
                if R[r][c]:
                    f = R[r][c] * inv
                    R[r] = [a - f * b for a, b in zip(R[r], R[c])]
        return det

    def charpoly(self):
        """Characteristic polynomial det(xI - A): a similarity reduction to
        upper Hessenberg form H, then the recurrence for the characteristic
        polynomials of the leading principal minors of H (Cohen, A Course in
        Computational Algebraic Number Theory, Alg. 2.2.9).  Exact over any
        field: the only divisions are by the pivots of the reduction.

        Over Q(x) it is slow on dense matrices: the divisions make the
        entries' degrees grow with n, so a dense 5 x 5 took 37.5 s against
        0.13 s for the division-free Berkowitz algorithm.  No caller in the
        library reaches that case: the radical's charpoly levels run only
        in characteristic p."""
        from .scalars import Poly

        n = self.n
        if self.m != n:
            raise ValueError("charpoly of non-square matrix")
        fld = self.field
        z, one = fld.zero, fld.one
        H = [list(r) for r in self.rows]
        for m in range(1, n - 1):
            c = m - 1
            pivot = next((r for r in range(m, n) if H[r][c]), None)
            if pivot is None:
                continue
            if pivot != m:
                H[m], H[pivot] = H[pivot], H[m]
                for row in H:
                    row[m], row[pivot] = row[pivot], row[m]
            prow = H[m]
            inv = fld.inv(prow[c])
            pairs = [(j, a) for j, a in enumerate(prow) if a]
            # clear column c below row m: row r -= u_r row m, then the
            # inverse transform adds u_r times column r to column m
            us = []
            for r in range(m + 1, n):
                row = H[r]
                if row[c]:
                    u = row[c] * inv
                    for j, a in pairs:
                        row[j] = row[j] - u * a
                    us.append((r, u))
            if us:
                for row in H:
                    acc = row[m]
                    for r, u in us:
                        b = row[r]
                        if b:
                            acc = acc + u * b
                    row[m] = acc
        # p_k, the charpoly of the leading k x k minor, low degree first:
        # p_(k+1) = (x - h_kk) p_k - sum_i h_ik (h_(i+1)i ... h_k(k-1)) p_i
        polys = [[one]]
        for k in range(n):
            prev = polys[-1]
            new = [z] + prev
            h = H[k][k]
            if h:
                for d, a in enumerate(prev):
                    new[d] = new[d] - h * a
            t = one
            for i in range(k - 1, -1, -1):
                t = t * H[i + 1][i]
                if not t:
                    break
                a = H[i][k]
                if a:
                    f = a * t
                    for d, b in enumerate(polys[i]):
                        if b:
                            new[d] = new[d] - f * b
            polys.append(new)
        return Poly(fld, polys[-1])

    def minpoly(self):
        """Minimal polynomial: the first power of A in the span of the
        earlier ones gives the least-degree monic relation."""
        from .scalars import Poly

        fld = self.field
        flat = lambda P: [a for r in P.rows for a in r]
        P = Mat.eye(fld, self.n)
        powers = Span(fld, [flat(P)])
        for _ in range(self.n):
            P = P * self
            c = powers.coords(flat(P))
            if c is not None:
                return Poly(fld, [-a for a in c] + [fld.one])
            powers.add(flat(P))
        raise AssertionError("minimal polynomial of degree <= n must exist")

    def pow(self, e: int) -> "Mat":
        out = Mat.eye(self.field, self.n)
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out


class Span:
    """A subspace of field^n in semi-echelon form, grown one vector at a
    time.  `basis` holds the vectors `add` accepted, in input order;
    `coords` gives coordinates in that basis, which are unique."""

    __slots__ = ("field", "basis", "pivots", "_rows", "_combos")

    def __init__(self, field, vecs=()):
        self.field = field
        self.basis = []
        self.pivots = []   # pivot column of each echelon row
        self._rows = []    # echelon rows as their nonzero (column, value) pairs:
                           # 1 at their pivot, 0 before it and at earlier rows' pivots
        self._combos = []  # each echelon row as coefficients over basis
        for v in vecs:
            self.add(v)

    def _reduce(self, v):
        """v minus its components along the echelon rows, and those components."""
        r = list(v)
        cs = []
        for pairs, p in zip(self._rows, self.pivots):
            c = r[p]
            cs.append(c)
            if c:
                for j, b in pairs:
                    r[j] = r[j] - c * b
        return r, cs

    def add(self, v) -> bool:
        """Extend the span by v; True when v was independent."""
        z = self.field.zero
        r, cs = self._reduce(v)
        p = next((j for j, a in enumerate(r) if a), None)
        if p is None:
            return False
        inv = self.field.inv(r[p])
        # r = v - sum c_i row_i, so the new row r/r[p] is a combination of basis + [v]
        combo = [z] * len(self.basis) + [inv]
        for c, comb in zip(cs, self._combos):
            if c:
                f = c * inv
                for j, a in enumerate(comb):
                    if a:
                        combo[j] = combo[j] - f * a
        self._rows.append([(j, a * inv) for j, a in enumerate(r) if a])
        self.pivots.append(p)
        self._combos.append(combo)
        self.basis.append(list(v))
        return True

    def contains(self, v) -> bool:
        return not any(self._reduce(v)[0])

    def coords(self, v):
        """Coordinates of v in `basis`, or None when v is outside the span."""
        r, cs = self._reduce(v)
        if any(r):
            return None
        out = [self.field.zero] * len(self.basis)
        for c, comb in zip(cs, self._combos):
            if c:
                for j, a in enumerate(comb):
                    if a:
                        out[j] = out[j] + c * a
        return out


def span_basis(field, vecs):
    """Extract a basis (subset in input order) of the span of vecs."""
    return Span(field, vecs).basis


def _matrix_equation_kernel(field, shapes, equations):
    """Solutions of linear matrix equations in unknown blocks X_0, X_1, ...
    of the given (rows, cols) shapes.  Each equation is a list of terms
    (b, L, R, c) and states sum c * L * X_b * R = 0, where L or R may be
    None for an identity factor; the first term fixes the equation's
    shape.  Entry (r, s) of an equation is one row of the system: a term
    adds c * L[r][i] * R[j][s] at X_b[i][j], walking only the nonzero
    entries of L and R, and the terms' contributions add up.  The rows are
    taken in order, all-zero ones dropped (a row is made at its first
    nonzero entry), and the basis of `Mat.kernel` comes back as one list
    of blocks per vector."""
    blocks, total = [], 0
    for m, n in shapes:
        blocks.append((total, m, n))
        total += m * n
    if not total:
        return []
    z = field.zero
    rows, nrows = {}, 0  # row number -> dense row
    for terms in equations:
        b, L, R, _ = terms[0]
        _, m, n = blocks[b]
        width = R.n if R is not None else n
        start = nrows
        nrows += (L.m if L is not None else m) * width
        for b, L, R, c in terms:
            off, m, n = blocks[b]
            # most terms of the Hom equations have an identity factor; its
            # own loop keeps their rows as cheap as rows written by hand
            if L is None:
                # c * X_b * R: row (r, s) gets c * R[j][s] at X_b[r][j]
                for j, rrow in enumerate(R.rows):
                    for s, x in enumerate(rrow):
                        if x:
                            x = x * c
                            for r in range(m):
                                k = start + r * width + s
                                row = rows.get(k) or rows.setdefault(k, [z] * total)
                                k = off + r * n + j
                                row[k] = row[k] + x
            elif R is None:
                # c * L * X_b: row (r, s) gets c * L[r][i] at X_b[i][s]
                for r, lrow in enumerate(L.rows):
                    for i, a in enumerate(lrow):
                        if a:
                            a = a * c
                            for s in range(n):
                                k = start + r * width + s
                                row = rows.get(k) or rows.setdefault(k, [z] * total)
                                k = off + i * n + s
                                row[k] = row[k] + a
            else:
                rpairs = [(j, s, x) for j, rrow in enumerate(R.rows) for s, x in enumerate(rrow) if x]
                for r, lrow in enumerate(L.rows):
                    for i, a in enumerate(lrow):
                        if a:
                            a = a * c
                            for j, s, x in rpairs:
                                k = start + r * width + s
                                row = rows.get(k) or rows.setdefault(k, [z] * total)
                                k = off + i * n + j
                                row[k] = row[k] + a * x
    kernel = Mat._own(field, [row for _, row in sorted(rows.items()) if any(row)], total).kernel()
    return [[Mat._own(field, [v[o + r * n: o + (r + 1) * n] for r in range(m)], n) for o, m, n in blocks]
            for v in kernel]
