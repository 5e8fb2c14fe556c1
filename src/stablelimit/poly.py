"""Sparse multivariate polynomials over the exact rings, plus a text grammar.

A polynomial is a map from exponent vectors to nonzero coefficients, all
sharing one ring and one variable registry.  The registry fixes the
variable order, and with it the graded reverse lexicographic order used
for canonical printing and deterministic iteration.

The grammar accepted by ``parse_poly`` is deliberately tiny::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | var | '(' expr ')'
    var    := [A-Za-z][A-Za-z0-9']*

Whitespace is insignificant and there is no implicit multiplication.
Integer literals map into the coefficient ring through its canonical
``from_int``.  Scenario data files embed every input polynomial in this
grammar, so entering a published equation is a copy-paste job rather than
a re-derivation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .rings import Element, Ring, RingMismatchError


class VarRegistry:
    """An ordered list of distinct variable names."""

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _is_valid_var(name):
                raise ValueError(f"invalid variable name: {name!r}")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __eq__(self, other):
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarRegistry({', '.join(self.names)})"


def _is_valid_var(name: str) -> bool:
    if not name or not name[0].isalpha():
        return False
    return all(ch.isalnum() or ch == "'" for ch in name[1:])


def _grevlex_key(exps: tuple[int, ...]):
    # descending total degree, ties broken reverse-lexicographically:
    # of two monomials with equal degree the larger is the one whose
    # last differing exponent is smaller.
    return (sum(exps), tuple(-e for e in reversed(exps)))


class MPoly:
    """A sparse multivariate polynomial over an exact ring.

    Treat instances as immutable; all operations return fresh objects.
    """

    __slots__ = ("registry", "ring", "terms")

    def __init__(self, registry: VarRegistry, ring: Ring,
                 terms: Mapping[tuple[int, ...], Element] | None = None):
        self.registry = registry
        self.ring = ring
        clean: dict[tuple[int, ...], Element] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != len(registry):
                    raise ValueError("exponent vector has wrong length")
                if coeff.ring != ring:
                    raise RingMismatchError("coefficient from a foreign ring")
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, registry: VarRegistry, ring: Ring) -> "MPoly":
        return cls(registry, ring, {})

    @classmethod
    def constant(cls, registry: VarRegistry, coeff: Element) -> "MPoly":
        zeros = (0,) * len(registry)
        return cls(registry, coeff.ring, {zeros: coeff})

    @classmethod
    def variable(cls, registry: VarRegistry, ring: Ring, name: str) -> "MPoly":
        if name not in registry:
            raise KeyError(f"unknown variable {name!r}")
        exps = [0] * len(registry)
        exps[registry.index[name]] = 1
        return cls(registry, ring, {tuple(exps): ring.one()})

    # ------------------------------------------------------------------
    # ring operations

    def _check(self, other: "MPoly") -> None:
        if self.registry != other.registry:
            raise RingMismatchError("variable registries differ")
        if self.ring != other.ring:
            raise RingMismatchError("coefficient rings differ")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in terms:
                s = terms[exps] + coeff
                if s.is_zero():
                    del terms[exps]
                else:
                    terms[exps] = s
            else:
                terms[exps] = coeff
        out = MPoly.__new__(MPoly)
        out.registry, out.ring, out.terms = self.registry, self.ring, terms
        return out

    def __neg__(self) -> "MPoly":
        out = MPoly.__new__(MPoly)
        out.registry, out.ring = self.registry, self.ring
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms: dict[tuple[int, ...], Element] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if exps in terms:
                    s = terms[exps] + prod
                    if s.is_zero():
                        del terms[exps]
                    else:
                        terms[exps] = s
                elif not prod.is_zero():
                    terms[exps] = prod
        out = MPoly.__new__(MPoly)
        out.registry, out.ring, out.terms = self.registry, self.ring, terms
        return out

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MPoly.constant(self.registry, self.ring.one())
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, coeff: Element) -> "MPoly":
        if coeff.ring != self.ring:
            raise RingMismatchError("scalar from a foreign ring")
        return MPoly(self.registry, self.ring,
                     {e: c * coeff for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.registry == other.registry and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.registry, tuple(sorted(self.terms.items(),
                                                 key=lambda t: t[0]))))

    # ------------------------------------------------------------------
    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if name not in self.registry:
            raise KeyError(f"unknown variable {name!r}")
        i = self.registry.index[name]
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient(self, monomial: Mapping[str, int]) -> Element:
        exps = [0] * len(self.registry)
        for name, e in monomial.items():
            exps[self.registry.index[name]] = e
        return self.terms.get(tuple(exps), self.ring.zero())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Element]]:
        """Terms in descending graded reverse lexicographic order."""
        return sorted(self.terms.items(),
                      key=lambda t: _grevlex_key(t[0]), reverse=True)

    def variables_used(self) -> set[str]:
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(self.registry.names[i])
        return used

    # ------------------------------------------------------------------
    # calculus and restriction

    def partial_derivative(self, name: str) -> "MPoly":
        if name not in self.registry:
            raise KeyError(f"unknown variable {name!r}")
        i = self.registry.index[name]
        terms: dict[tuple[int, ...], Element] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            c = coeff * self.ring.from_int(e)
            if c.is_zero():
                continue  # characteristic-p collapse, e.g. d/dx x^p
            new = list(exps)
            new[i] = e - 1
            terms[tuple(new)] = c
        return MPoly(self.registry, self.ring, terms)

    def graded_part(self, degree: int, names: Iterable[str] | None = None) -> "MPoly":
        """Sum of terms of total degree exactly ``degree`` in ``names``."""
        if names is None:
            idxs = range(len(self.registry))
        else:
            idxs = [self.registry.index[n] for n in names]
        terms = {e: c for e, c in self.terms.items()
                 if sum(e[i] for i in idxs) == degree}
        return MPoly(self.registry, self.ring, terms)

    def substitute(self, bindings: Mapping[str, "MPoly"]) -> "MPoly":
        """Ring-homomorphic substitution; unbound variables pass through."""
        for name, value in bindings.items():
            if name not in self.registry:
                raise KeyError(f"unknown variable {name!r}")
            if value.registry != self.registry or value.ring != self.ring:
                raise RingMismatchError("binding in a foreign polynomial ring")
        bound_idx = {self.registry.index[n]: v for n, v in bindings.items()}
        power_cache: dict[tuple[int, int], MPoly] = {}

        def cached_power(i: int, e: int) -> MPoly:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = bound_idx[i] ** e
            return power_cache[key]

        result = MPoly.zero(self.registry, self.ring)
        for exps, coeff in self.terms.items():
            residual = list(exps)
            piece = None
            for i in bound_idx:
                e = exps[i]
                if e:
                    residual[i] = 0
                    factor = cached_power(i, e)
                    piece = factor if piece is None else piece * factor
            base = MPoly(self.registry, self.ring, {tuple(residual): coeff})
            result = result + (base if piece is None else base * piece)
        return result

    def translate(self, offsets: Mapping[str, Element]) -> "MPoly":
        """Taylor shift: evaluate(translate(p, a), x) = evaluate(p, x + a)."""
        bindings = {}
        for name, off in offsets.items():
            var = MPoly.variable(self.registry, self.ring, name)
            bindings[name] = var + MPoly.constant(self.registry, off)
        return self.substitute(bindings)

    def evaluate(self, assignment: Mapping[str, Element]) -> Element:
        acc = self.ring.zero()
        idx_vals = {}
        for name, value in assignment.items():
            if value.ring != self.ring:
                raise RingMismatchError("assignment value from a foreign ring")
            idx_vals[self.registry.index[name]] = value
        # powers[i][e - 1] is the bound value of variable i to the e,
        # each built once from the one below it
        powers: dict[int, list[Element]] = {}
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    if i not in idx_vals:
                        raise KeyError(
                            f"no value for {self.registry.names[i]!r}")
                    ladder = powers.setdefault(i, [idx_vals[i]])
                    while len(ladder) < e:
                        ladder.append(ladder[-1] * idx_vals[i])
                    term = term * ladder[e - 1]
            acc = acc + term
        return acc

    def is_bihomogeneous(self, bidegree: tuple[int, int],
                         split: tuple[Sequence[str], Sequence[str]]) -> bool:
        """True iff every term has the given degrees in the two variable sets."""
        a, b = bidegree
        first = [self.registry.index[n] for n in split[0]]
        second = [self.registry.index[n] for n in split[1]]
        for exps in self.terms:
            if sum(exps[i] for i in first) != a:
                return False
            if sum(exps[i] for i in second) != b:
                return False
        return True

    def truncate(self, name: str, max_degree: int) -> "MPoly":
        """Drop all terms whose exponent of ``name`` exceeds ``max_degree``."""
        i = self.registry.index[name]
        terms = {e: c for e, c in self.terms.items() if e[i] <= max_degree}
        return MPoly(self.registry, self.ring, terms)

    def change_ring(self, ring: Ring,
                    convert: Callable[[Element], Element] | None = None) -> "MPoly":
        """Map coefficients into another ring.

        Without an explicit converter the coefficients must have integer
        payloads, which are pushed through the target ring's ``from_int``.
        """
        if convert is None:
            def convert(c: Element) -> Element:
                if not isinstance(c.payload, int):
                    raise RingMismatchError(
                        "default conversion needs integer payloads")
                return ring.from_int(c.payload)
        return MPoly(self.registry, ring,
                     {e: convert(c) for e, c in self.terms.items()})

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(self.registry.names[i])
                elif e > 1:
                    factors.append(f"{self.registry.names[i]}^{e}")
            coeff_str, negative = _format_coefficient(coeff, bool(factors))
            body = "*".join(([coeff_str] if coeff_str else []) + factors)
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("-" if negative else "+") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def unit_match(p: MPoly, target: MPoly) -> Element | None:
    """The unit u with p = u * target, fixed from the leading monomial of
    the target and then verified everywhere; None if no unit works."""
    for exps, c in target.sorted_terms():
        cp = p.terms.get(exps)
        if cp is None:
            return None
        u = cp * c.inverse()
        return u if (target.scale(u) - p).is_zero() else None
    return None


def _format_coefficient(coeff: Element, has_factors: bool) -> tuple[str, bool]:
    """Render a coefficient for printing; returns (text, print_minus_sign).

    Integer payloads print as their absolute value with the sign carried
    by the flag (residue rings have no negative payloads); a leading 1
    before a monomial is suppressed.  Non-integer payloads (e.g. GF(p)[i]
    values with an imaginary part) print parenthesized and never claim
    the minus-sign shorthand.
    """
    payload = coeff.payload
    if isinstance(payload, int):
        if has_factors and abs(payload) == 1:
            return "", payload < 0
        return str(abs(payload)), payload < 0
    if isinstance(payload, tuple) and all(isinstance(x, int) for x in payload):
        re, im = payload
        if im == 0:
            if has_factors and re == 1:
                return "", False
            return str(re), False
    return f"({coeff!r})", False


# ----------------------------------------------------------------------
# parser


class ParseError(ValueError):
    """Syntax or semantic error in polynomial text, with position info."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int) -> None:
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def tokens(self):
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self._advance(1)
                continue
            line, col = self.line, self.col
            if ch in "+-*^()":
                out.append((ch, ch, line, col))
                self._advance(1)
            elif ch.isdigit():
                j = self.pos
                while j < len(self.text) and self.text[j].isdigit():
                    j += 1
                out.append(("INT", self.text[self.pos:j], line, col))
                self._advance(j - self.pos)
            elif ch.isalpha():
                j = self.pos + 1
                while j < len(self.text) and (self.text[j].isalnum()
                                              or self.text[j] == "'"):
                    j += 1
                out.append(("NAME", self.text[self.pos:j], line, col))
                self._advance(j - self.pos)
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
        out.append(("EOF", "", self.line, self.col))
        return out


class _Parser:
    def __init__(self, tokens, registry: VarRegistry, ring: Ring):
        self.tokens = tokens
        self.k = 0
        self.registry = registry
        self.ring = ring

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind: str):
        tok = self.tokens[self.k]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}",
                             tok[2], tok[3])
        self.k += 1
        return tok

    def parse_expr(self) -> MPoly:
        negate = False
        if self.peek()[0] == "-":
            self.take("-")
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])
            term = self.parse_term()
            acc = acc + term if op[0] == "+" else acc - term
        return acc

    def parse_term(self) -> MPoly:
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.take("*")
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> MPoly:
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.take("^")
            tok = self.take("INT")
            base = base ** int(tok[1])
        return base

    def parse_base(self) -> MPoly:
        tok = self.peek()
        if tok[0] == "INT":
            self.take("INT")
            return MPoly.constant(self.registry, self.ring.from_int(int(tok[1])))
        if tok[0] == "NAME":
            self.take("NAME")
            if tok[1] not in self.registry:
                raise ParseError(f"unknown variable {tok[1]!r}",
                                 tok[2], tok[3])
            return MPoly.variable(self.registry, self.ring, tok[1])
        if tok[0] == "(":
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}",
                         tok[2], tok[3])


def parse_poly(text: str, registry: VarRegistry, ring: Ring) -> MPoly:
    """Parse polynomial text over the given registry and ring."""
    tokens = _Tokenizer(text).tokens()
    parser = _Parser(tokens, registry, ring)
    result = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input starting at {tok[1]!r}",
                         tok[2], tok[3])
    return result
