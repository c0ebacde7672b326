"""Exact multivariate polynomial arithmetic over QQ and GF(p).

Also hosts the text DSL for rings ("F2[x,y]/(x^2,x*y)"), polynomials
("x^2 - 2*x*y"), and variable-image maps ("{x->x, y->y^2}").

A presented ring is a standard-graded quotient Q/I of a polynomial ring
by homogeneous generators lying inside the square of the irrelevant
ideal.  That minimality convention is enforced at construction: it is
what makes the degree-1 strand of the quotient equal the variable span,
so conormal matrices and per-degree linear algebra downstream stay
honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub

from .errors import DSLError, ValidationError


# ---------------------------------------------------------------------------
# Coefficient fields


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class RationalField:
    """The rationals; coefficients are Fractions in lowest terms."""

    characteristic = 0

    def normalize(self, value):
        return Fraction(value)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p < 2**31; residues are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValidationError(f"modulus {p} is not prime")
        if p >= 2**31:
            raise ValidationError(f"modulus {p} too large (must be < 2^31)")
        self.p = p
        self.characteristic = p

    def normalize(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ValidationError(f"{value} has no residue modulo {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        return int(value) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def field_name(field) -> str:
    return "QQ" if field.characteristic == 0 else f"F{field.characteristic}"


# ---------------------------------------------------------------------------
# Monomials: dense exponent tuples, one slot per variable.


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_deg(m) -> int:
    return sum(m)


def mono_divides(a, b) -> bool:
    return all(map(le, a, b))


def mono_quot(m, d):
    """Exponent quotient m / d (assumes d divides m)."""
    return tuple(map(sub, m, d))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def monomials_of_degree(nvars: int, d: int):
    """Yield all exponent tuples of total degree d (deterministic order)."""
    if nvars == 0:
        if d == 0:
            yield ()
        return
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def degrevlex_key(m):
    """Sort key: larger key means larger monomial in graded reverse lex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def deglex_key(m):
    """Sort key: larger key means larger monomial in graded lex."""
    return (sum(m), m)


# ---------------------------------------------------------------------------
# Polynomials


@dataclass(frozen=True)
class PolyRing:
    """Ambient polynomial ring: a coefficient field and named variables."""

    field: object
    variables: tuple

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = self.field.normalize(c)
        if self.field.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def monomial(self, m, c=1) -> "Polynomial":
        c = self.field.normalize(c)
        if self.field.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {tuple(m): c})

    def poly(self, terms: dict) -> "Polynomial":
        out = {}
        for m, c in terms.items():
            c = self.field.normalize(c)
            if not self.field.is_zero(c):
                out[tuple(m)] = c
        return Polynomial(self, out)


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValidationError("polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(out.get(m, fld.zero), c)
            if fld.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        fld = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = fld.add(out.get(m, fld.zero), fld.mul(c1, c2))
                if fld.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative polynomial power")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c):
        fld = self.ring.field
        c = fld.normalize(c)
        if fld.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: fld.mul(v, c) for m, v in self.terms.items()})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def linear_coefficient(self, i: int):
        e = [0] * self.ring.nvars
        e[i] = 1
        return self.terms.get(tuple(e), self.ring.field.zero)

    def substitute(self, images, ring: PolyRing | None = None) -> "Polynomial":
        """Replace variable i by images[i]; images live in a common ring."""
        if len(images) != self.ring.nvars:
            raise ValidationError(
                f"need {self.ring.nvars} images, got {len(images)}"
            )
        if ring is None:
            if images:
                ring = images[0].ring
            else:
                ring = self.ring
        out = ring.zero()
        for m, c in self.terms.items():
            piece = ring.const(c)
            for i, e in enumerate(m):
                if e:
                    piece = piece * images[i] ** e
            out = out + piece
        return out

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return poly_to_dsl(self)

    def __repr__(self):
        return f"Polynomial({poly_to_dsl(self)})"


def poly_to_dsl(f: Polynomial) -> str:
    """Canonical text form; integer-coefficient output reparses to f."""
    if not f.terms:
        return "0"
    names = f.ring.variables
    pieces = []
    # descending degrevlex, whatever order a ring computes in
    terms = sorted(f.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)
    for m, c in terms:
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        body = "*".join(factors)
        neg = c < 0
        mag = -c if neg else c
        if not factors:
            coeff = str(mag)
        elif mag == 1:
            coeff = body
        else:
            coeff = f"{mag}*{body}"
        pieces.append(("- " if neg else "+ ") + coeff)
    text = " ".join(pieces)
    if text.startswith("+ "):
        return text[2:]
    return "-" + text[2:]


# ---------------------------------------------------------------------------
# Presented rings


class RingPresentation:
    """A quotient Q/I of a standard-graded polynomial ring.

    Every ideal generator must be homogeneous of degree >= 2, so the
    presentation is minimal in the sense that I sits inside the square
    of the irrelevant ideal.  Generators are deduplicated; the list
    order is preserved otherwise.
    """

    def __init__(self, field, variables, generators=(), order_kind="degrevlex"):
        variables = tuple(variables)
        seen = set()
        for v in variables:
            if not _valid_ident(v):
                raise ValidationError(f"invalid variable name {v!r}")
            if v in seen:
                raise ValidationError(f"duplicate variable {v!r}")
            seen.add(v)
        self.field = field
        self.variables = variables
        self.order_kind = order_kind
        self.ambient = PolyRing(field, variables)
        gens = []
        for g in generators:
            if g.ring != self.ambient:
                raise ValidationError("generator not in the ambient ring")
            if g.is_zero():
                raise ValidationError("zero ideal generator")
            if not g.is_homogeneous():
                raise ValidationError(f"inhomogeneous generator: {g}")
            if g.degree() < 2:
                raise ValidationError(
                    f"generator with linear part violates minimality: {g}"
                )
            if all(g != h for h in gens):
                gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    # -- basic data ---------------------------------------------------------

    @property
    def embdim(self) -> int:
        return len(self.variables)

    @property
    def characteristic(self) -> int:
        return self.field.characteristic

    def variable_polys(self):
        """The variable images x_1, ..., x_d as ambient polynomials."""
        return [self.ambient.var(i) for i in range(self.embdim)]

    def max_generator_degree(self) -> int:
        if not self.generators:
            return 1
        return max(g.degree() for g in self.generators)

    def to_dsl(self) -> str:
        head = f"{field_name(self.field)}[{','.join(self.variables)}]"
        if not self.generators:
            return head
        return head + "/(" + ",".join(poly_to_dsl(g) for g in self.generators) + ")"

    def __eq__(self, other):
        return (
            isinstance(other, RingPresentation)
            and self.field == other.field
            and self.variables == other.variables
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.generators))

    def __repr__(self):
        return f"RingPresentation({self.to_dsl()})"


# ---------------------------------------------------------------------------
# DSL parsing


def _valid_ident(s: str) -> bool:
    return (
        bool(s)
        and s[0].isascii()
        and s[0].isalpha()
        and all(ch.isascii() and ch.isalnum() for ch in s)
    )


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", i))
            i += 2
            continue
        if ch in "[](){},/^*+-":
            tokens.append(("SYM", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i
            while j < n and text[j].isascii() and text[j].isalnum():
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise DSLError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise DSLError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def whole(self, value):
        """value, once the input is used up; else reject what is left."""
        tok = self.peek()
        if tok[0] != "END":
            raise DSLError(f"trailing input {tok[1]!r}", tok[2])
        return value

    # -- polynomial grammar: signed sums of terms ---------------------------

    def parse_poly(self, ring: PolyRing) -> Polynomial:
        result = ring.zero()
        sign = 1
        tok = self.peek()
        if tok[0] == "SYM" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        result = result + self._parse_term(ring, sign)
        while True:
            tok = self.peek()
            if tok[0] == "SYM" and tok[1] in "+-":
                self.next()
                sign = -1 if tok[1] == "-" else 1
                result = result + self._parse_term(ring, sign)
            else:
                return result

    def _parse_term(self, ring: PolyRing, sign: int) -> Polynomial:
        tok = self.peek()
        coeff = 1
        saw_coeff = False
        if tok[0] == "INT":
            self.next()
            coeff = tok[1]
            saw_coeff = True
        exps = [0] * ring.nvars
        saw_var = False
        while True:
            tok = self.peek()
            if tok[0] == "SYM" and tok[1] == "*":
                self.next()
                tok = self.peek()
                if tok[0] != "IDENT":
                    raise DSLError("expected a variable after '*'", tok[2])
                continue
            if tok[0] == "IDENT":
                self.next()
                if tok[1] not in ring.variables:
                    raise DSLError(f"unknown variable {tok[1]!r}", tok[2])
                idx = ring.variables.index(tok[1])
                power = 1
                nxt = self.peek()
                if nxt[0] == "SYM" and nxt[1] == "^":
                    self.next()
                    ptok = self.expect("INT")
                    power = ptok[1]
                exps[idx] += power
                saw_var = True
                continue
            break
        if not saw_coeff and not saw_var:
            tok = self.peek()
            raise DSLError("expected a term", tok[2])
        return ring.monomial(tuple(exps), sign * coeff)

    # -- ring grammar --------------------------------------------------------

    def parse_field(self):
        tok = self.expect("IDENT")
        name = tok[1]
        if name == "QQ":
            return QQ
        if name.startswith("F") and name[1:].isdigit():
            return PrimeField(int(name[1:]))
        raise DSLError(f"unknown coefficient field {name!r}", tok[2])

    def parse_ring(self) -> RingPresentation:
        field = self.parse_field()
        self.expect("SYM", "[")
        names = [self.expect("IDENT")[1]]
        while self.peek()[:2] == ("SYM", ","):
            self.next()
            names.append(self.expect("IDENT")[1])
        self.expect("SYM", "]")
        gens_text = []
        if self.peek()[:2] == ("SYM", "/"):
            self.next()
            self.expect("SYM", "(")
            ring = PolyRing(field, tuple(names))
            if self.peek()[:2] == ("SYM", ")"):
                self.next()
            else:
                gens_text.append(self.parse_poly(ring))
                while self.peek()[:2] == ("SYM", ","):
                    self.next()
                    gens_text.append(self.parse_poly(ring))
                self.expect("SYM", ")")
        return RingPresentation(field, tuple(names), gens_text)

    # -- map grammar -----------------------------------------------------------

    def parse_map(self, source: RingPresentation, target: RingPresentation):
        self.expect("SYM", "{")
        assignments = {}
        while True:
            tok = self.expect("IDENT")
            name = tok[1]
            if name not in source.variables:
                raise DSLError(f"unknown source variable {name!r}", tok[2])
            if name in assignments:
                raise DSLError(f"duplicate assignment for {name!r}", tok[2])
            self.expect("ARROW")
            assignments[name] = self.parse_poly(target.ambient)
            tok = self.peek()
            if tok[:2] == ("SYM", ","):
                self.next()
                continue
            self.expect("SYM", "}")
            break
        missing = [v for v in source.variables if v not in assignments]
        if missing:
            raise DSLError(f"missing assignment for variable {missing[0]!r}")
        return [assignments[v] for v in source.variables]


def parse_ring(text: str) -> RingPresentation:
    """Parse a ring presentation like "QQ[x,y]/(x*y)" or "F2[x]/(x^2)"."""
    p = _Parser(text)
    return p.whole(p.parse_ring())


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse one polynomial in the given ambient ring."""
    p = _Parser(text)
    return p.whole(p.parse_poly(ring))


def parse_map(text: str, source: RingPresentation, target: RingPresentation):
    """Parse a variable-image map; returns images in source-variable order.

    Well-definedness on the quotient is not checked here; the ghost
    module owns that certificate.
    """
    p = _Parser(text)
    return p.whole(p.parse_map(source, target))


def map_to_dsl(source: RingPresentation, images) -> str:
    parts = [
        f"{v}->{poly_to_dsl(img)}" for v, img in zip(source.variables, images)
    ]
    return "{" + ", ".join(parts) + "}"
