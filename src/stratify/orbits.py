"""Tangent-space calculus for hypersurface orbits.

Polynomials are sparse maps from exponent vectors to exact rationals, an
integral coefficient as an int and any other as a `Fraction`.  The
derivative matrix of a form encodes the tangent space to its linear-group
orbit; row reduction inside torus-weight blocks turns the by-hand relation
hunting into rank computation.  Torus weights are paired with the
cocharacters scaled to integers, so the blocks are found in plain integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul

from ._exact import adjugate
from ._pure import Record, rank, rational, scaled_integers
from .weights import monomials_of_degree, vec


class MultiPoly:
    """Sparse polynomial in variables x0..xn over exact rationals; an
    integral coefficient is an int, any other a `Fraction`."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for expo, c in dict(terms).items():
                c = rational(c)
                if c:
                    self.terms[tuple(expo)] = c

    def is_zero(self) -> bool:
        return not self.terms

    def degree_set(self) -> set:
        return {sum(e) for e in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degree_set()) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.nvars, out)

    def scale(self, c) -> "MultiPoly":
        c = rational(c)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def pow(self, k: int) -> "MultiPoly":
        result = MultiPoly.constant(self.nvars, 1)
        for _ in range(k):
            result = result * self
        return result

    def diff(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return MultiPoly(self.nvars, out)

    def substitute(self, linear_forms: list) -> "MultiPoly":
        """Evaluate at x_i = linear_forms[i]."""
        out = MultiPoly(self.nvars)
        for e, c in self.terms.items():
            term = MultiPoly.constant(self.nvars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * linear_forms[i].pow(k)
            out = out + term
        return out

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {tuple([0] * nvars): c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): 1})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?\*?((?:x\d+(?:\^\d+)?)(?:\*x\d+(?:\^\d+)?)*)?$")
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text: str, nvars: int) -> MultiPoly:
    """Parse a plain-text polynomial like "x0*x1*x2 + x3^3 - 2*x1*x2*x3"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    chunks = re.findall(r"[+-]?[^+-]+", s)
    poly = MultiPoly(nvars)
    for chunk in chunks:
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff_s, vars_s = m.groups()
        coeff = sign * (Fraction(coeff_s) if coeff_s else Fraction(1))
        expo = [0] * nvars
        for vm in _VAR_RE.finditer(vars_s or ""):
            i = int(vm.group(1))
            k = int(vm.group(2) or 1)
            if i >= nvars:
                raise ValueError(f"variable x{i} out of range for {nvars} variables")
            expo[i] += k
        poly = poly + MultiPoly(nvars, {tuple(expo): coeff})
    return poly


def df_matrix(f: MultiPoly, n: int) -> list:
    """Matrix of orbit-direction derivatives: entry (i, j) is x_j * dF/dx_i."""
    if not f.is_homogeneous():
        raise ValueError("form must be homogeneous")
    nv = n + 1
    out = []
    for i in range(nv):
        dfi = f.diff(i)
        row = [MultiPoly.variable(nv, j) * dfi for j in range(nv)]
        out.append(row)
    return out


class NormalRep(Record):
    """Weight multiset of a stabilizer representation on a normal slice."""

    weights: tuple  # projected vectors in ambient coordinates
    pairings: tuple  # raw cocharacter pairings, one tuple per weight
    dim: int

    def __post_init__(self):
        if len(self.weights) != self.dim or len(self.pairings) != self.dim:
            raise ValueError("dim must equal the weight multiset cardinality")


class TangentNormalSplit(Record):
    tangent_weights: tuple
    tangent_pairings: tuple
    normal: NormalRep
    span_dim: int
    relation_count: int


def _block_ranks(polys) -> dict:
    """Rank of the span of each torus-weight block of the given polynomials.

    polys: list of (pairing, MultiPoly).  Returns {pairing: rank}.
    """
    blocks: dict = {}
    for pairing, p in polys:
        blocks.setdefault(pairing, []).append(p)
    ranks = {}
    for pairing, ps in blocks.items():
        monos = sorted({e for p in ps for e in p.terms})
        col = {e: j for j, e in enumerate(monos)}
        rows = []
        for p in ps:
            row = [0] * len(monos)
            for e, c in p.terms.items():
                row[col[e]] = c
            rows.append(row)
        ranks[pairing] = rank(rows)
    return ranks


def normal_rep_of(
    f: MultiPoly, cochars: list, extra_tangents=()
) -> TangentNormalSplit:
    """Split the degree-d monomial weight multiset into tangent and normal parts.

    ``cochars`` lists cocharacter vectors (rows, in ambient coordinates)
    spanning the torus; the form must be an eigenvector.  The tangent part is
    the weight-graded span of the derivative-matrix entries plus any declared
    extra tangent directions; the normal part is its complement in the full
    weight multiset.
    """
    nv = f.nvars
    n = nv - 1
    if not f.is_homogeneous() or f.is_zero():
        raise ValueError("form must be a nonzero homogeneous polynomial")
    d = next(iter(f.degree_set()))
    cochars = [vec(c) for c in cochars]
    if not cochars or any(len(lam) != nv for lam in cochars):
        raise ValueError("need at least one cocharacter, each with one entry per variable")
    # the cocharacters over their common denominator: integer pairings
    scaled, denom = scaled_integers(cochars)

    def pairing(expo):
        return tuple([sum(map(mul, expo, mu)) for mu in scaled])

    f_pairs = {pairing(e) for e in f.terms}
    if len(f_pairs) != 1:
        raise ValueError("form is not an eigenvector of the declared torus")

    gens = []
    for row in df_matrix(f, n):
        for p in row:
            if not p.is_zero():
                gens.append(p)
    for t in extra_tangents:
        if isinstance(t, str):
            t = parse_poly(t, nv)
        if t.is_zero() or not t.is_homogeneous() or next(iter(t.degree_set())) != d:
            raise ValueError("extra tangents must be nonzero homogeneous of the form's degree")
        gens.append(t)

    tagged = []
    for p in gens:
        pairs = {pairing(e) for e in p.terms}
        if len(pairs) != 1:
            raise ValueError("tangent generator mixes torus weights")
        tagged.append((pairs.pop(), p))

    ranks = _block_ranks(tagged)
    gram = [[sum(map(mul, a, b)) for b in scaled] for a in scaled]
    # the vector in the span with pairings q is sum_i (G^-1 q)_i mu_i over the
    # scaled cocharacters mu_i; with the integer adjugate, one division
    try:
        den, adj = adjugate(gram)
    except ValueError:
        raise ValueError("cocharacters are linearly dependent") from None
    columns = list(zip(*scaled))

    full: dict = {}
    for expo in monomials_of_degree(n, d):
        key = pairing(expo)
        full[key] = full.get(key, 0) + 1

    # blocks sort alike by scaled and by exact pairings: every coordinate is
    # scaled by the same positive integer
    tangent = []
    for key, rk in sorted(ranks.items()):
        if rk > full.get(key, 0):
            raise AssertionError("tangent block exceeds ambient multiplicity")
        tangent.extend([key] * rk)
    normal = []
    remaining = dict(full)
    for key in tangent:
        remaining[key] -= 1
    for key, mult in sorted(remaining.items()):
        normal.extend([key] * mult)

    exact = {}  # scaled pairing -> (exact pairing, projected vector)
    for key in full:
        coeffs = [sum(map(mul, row, key)) for row in adj]
        exact[key] = (tuple(Fraction(x, denom) for x in key),
                      tuple(Fraction(sum(map(mul, coeffs, col)), den) for col in columns))
    span_dim = len(tangent)
    return TangentNormalSplit(
        tangent_weights=tuple(exact[key][1] for key in tangent),
        tangent_pairings=tuple(exact[key][0] for key in tangent),
        normal=NormalRep(tuple(exact[key][1] for key in normal),
                         tuple(exact[key][0] for key in normal), len(normal)),
        span_dim=span_dim,
        relation_count=len(gens) - span_dim,
    )


class SemiInvariantReport(Record):
    ok: bool
    scalar: Fraction | None = None
    message: str = ""


def check_semiinvariant(f: MultiPoly, g) -> SemiInvariantReport:
    """Check whether F(g x) = lambda F(x) for an invertible rational matrix g."""
    nv = f.nvars
    rows = [[rational(x) for x in row] for row in g]
    if len(rows) != nv or any(len(r) != nv for r in rows):
        raise ValueError("matrix size must match the number of variables")
    forms = [
        MultiPoly(nv, {tuple(int(j == t) for t in range(nv)): rows[i][j]
                       for j in range(nv) if rows[i][j] != 0})
        for i in range(nv)
    ]
    fg = f.substitute(forms)
    if f.is_zero():
        raise ValueError("zero form")
    e0, c0 = next(iter(sorted(f.terms.items())))
    if e0 not in fg.terms:
        return SemiInvariantReport(False, None, "transformed form drops a monomial")
    lam = Fraction(fg.terms[e0], c0)  # exact, never a float
    if fg == f.scale(lam):
        return SemiInvariantReport(True, lam)
    return SemiInvariantReport(False, None, "transformed form is not proportional")
