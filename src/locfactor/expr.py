"""Expression language: parsing and rendering.

Grammar (whitespace insensitive, one-token lookahead):

    expr     := ['+'|'-'] term { ('+'|'-') term }
    term     := factor { '*' factor | factor }     # juxtaposition only when the
                                                   # right factor starts with a
                                                   # variable or '('
    factor   := primary [ '^' exponent ]
    primary  := INT | VAR | '(' expr ')'
    exponent := ['-'] INT                          # negative only directly on T

Variables are X, Y and T.  The ring is inferred from the variables used:
none -> Z, {X} -> Z[X], {T} -> the Laurent ring, {Y} or {X, Y} -> Z[X][Y].
T cannot be mixed with X or Y.  The renderer produces strings this grammar
accepts, so parse(render(e)) == e for every engine-produced element.

Text longer than ``INPUT_LENGTH_CAP`` characters is refused before it is
read.  Sums and products parse to flat lists, so only parentheses deepen the
tree; they may nest ``NESTING_DEPTH_CAP`` deep, and an integer literal may
have ``LITERAL_DIGITS_CAP`` digits.  Before it evaluates anything,
``parse_expr`` refuses input whose powers, multiplied through their nesting,
exceed ``EXPONENT_CAP``, input whose values could need more than
``DENSE_TERMS_CAP`` dense coefficients, input whose values could need
more than ``DENSE_BITS_CAP`` bits in dense coefficients, and input whose sums
and products build terms and partial products that could need more than that
in all.
"""

from __future__ import annotations

from .errors import DeskScaleError, ParseError
from .rings import ZX, ZXY, ZZ, Element, Poly, Ring

_VARS = ("X", "Y", "T")

# Tokenizing, parsing and walking the syntax tree cost time and memory in
# proportion to the text, before any other cap applies: a 5,000,001-character
# product of X's took 9.3 s and 716 MiB to refuse.  At the cap no input took
# over 0.25 s or 35 MiB (CPython 3.11, one core of a 2-vCPU guest).  The tests,
# golden files, selftest and benchmark corpora stay within 6,001 characters
# (182 in the benchmark corpora, seeds 1-10), far below the cap.
INPUT_LENGTH_CAP = 100_000

# Parsing and evaluation recurse once per parenthesis level, so the cap keeps
# both far inside Python's default recursion limit.
NESTING_DEPTH_CAP = 100
# Every exponent in the tests, golden files and benchmark corpora is <= 89.
EXPONENT_CAP = 100
# Integer literals are at most this many digits; below the cap the tests use
# at most 31 and the benchmark corpora 12.  The cap stays below 640, the least
# limit ``sys.set_int_max_str_digits`` accepts, so ``int()`` never refuses a
# literal that got past it.
LITERAL_DIGITS_CAP = 100
# Bound on (deg_X + 1) * (deg_Y + 1) over every value evaluation can build.
# The tests, golden files and benchmark corpora stay within 101 (X^100).  At
# the cap, with literals of up to 6 digits, evaluation took at most 0.16 s
# (degree 255 in X); above it, (X*Y+X+Y+1)^100 (10,201) took 1.5 s and
# (X+Y+1)^100*(X+Y+2)^100 (40,401) 7.2 s (CPython 3.11, one core of a
# 2-vCPU guest).
DENSE_TERMS_CAP = 256
# Bound on (deg_X + 1) * (deg_Y + 1) * bits over every value evaluation can
# build, where 2^bits bounds the value's 1-norm.  The tests, golden files and
# benchmark corpora stay within 18,079 ((X^10)^10 + 3^89).  At the cap one
# product or power took at most 0.01 s to evaluate, for example
# (999*X*X+999*X+999)^100; with a 100-digit literal N, (N*X+N)^100 (3.4
# million) took 0.6 s and (N*X+1)^100*(N*X+2)^100 (13.4 million) 2.9 s
# (CPython 3.11, one core of a 2-vCPU guest).  The terms of a sum each cost
# up to that, so the cap also bounds the dense bits of all the terms of all
# the sums together: a sum of 100 copies of (999999*X+999999)^100 (21.2
# million) took 0.47 s to evaluate before the engine refused its degree.
# Evaluating a product also builds its partial products, so those count
# too: a sum of 1,000 copies of a product of 255 X's (32.9 million) took
# 2.5 s to evaluate; a sum of 9 copies (296,037) is refused before evaluation.
# The tests, golden files, selftest and benchmark corpora (seeds 1-10) stay
# within a total of 6,000 (a difference of 3,000 X's).
DENSE_BITS_CAP = 2**18
# An unknown name is echoed in its error up to this many characters, then
# by its length alone, so a long mistyped input gives a short error line.
NAME_ECHO_CAP = 20


def _tokenize(text: str) -> list[tuple]:
    # tokens: ("int", n, pos) ("var", name, pos) ("op", ch, pos) ("end", "", pos)
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() reads; not superscripts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > LITERAL_DIGITS_CAP:
                raise DeskScaleError(
                    f"desk-scale limit: integer literal of {j - i} digits exceeds {LITERAL_DIGITS_CAP}"
                )
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name not in _VARS:
                shown = repr(name)
                if len(name) > NAME_ECHO_CAP:
                    shown = f"{name[:NAME_ECHO_CAP]!r}... of {len(name)} characters"
                raise ParseError(f"unknown variable {shown}", i)
            out.append(("var", name, i))
            i = j
            continue
        if ch in "+-*^()":
            out.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, ch):
        kind, val, pos = self.peek()
        if kind != "op" or val != ch:
            raise ParseError(f"expected {ch!r}", pos)
        return self.take()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        # ("sum", (term, ("neg", term), ...))
        terms = []
        sign = "+"
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            sign = self.take()[1]
        while True:
            term = self.term()
            terms.append(("neg", term) if sign == "-" else term)
            kind, val, _ = self.peek()
            if not (kind == "op" and val in "+-"):
                break
            sign = self.take()[1]
        return terms[0] if len(terms) == 1 else ("sum", tuple(terms))

    def term(self):
        # ("mul", (factor, ...))
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                factors.append(self.factor())
            elif kind == "var" or (kind == "op" and val == "("):
                # juxtaposition: 12X, 2(X+1), X(X+1)
                factors.append(self.factor())
            else:
                break
        return factors[0] if len(factors) == 1 else ("mul", tuple(factors))

    def factor(self):
        node = self.primary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                sign = -1
                self.take()
            kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent", pos)
            self.take()
            exp = sign * val
            if exp < 0 and node != ("var", "T"):
                raise ParseError("negative exponent is only allowed on T", pos)
            node = ("pow", node, exp)
        return node

    def primary(self):
        kind, val, pos = self.take()
        if kind == "int":
            return ("int", val)
        if kind == "var":
            return ("var", val)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > NESTING_DEPTH_CAP:
                raise ParseError(f"parentheses nest deeper than {NESTING_DEPTH_CAP}", pos)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError(f"expected a value, found {val!r}", pos)


def _parse(text: str) -> tuple[object, set]:
    """Syntax tree of ``text`` and the variables it uses."""
    tokens = _tokenize(text)
    variables = {val for kind, val, _ in tokens if kind == "var"}
    return _Parser(tokens).parse(), variables


def _size_reach(node) -> tuple[int, int, int, int, int, int]:
    """Upper bounds on the positive and negative X-degrees (T counts as X, T^-k
    as X^-k: a Laurent value is a Z[X] fraction over a power of X, whose dense
    numerator spans both), the Y-degree and log2 of the 1-norm of every value
    evaluating node builds, the total dense size of the terms its sums add up,
    and the largest product of exponents along a chain of nested powers.
    Degrees: sums take the larger in each slot, products add, powers
    multiply, and T^-k swaps the X slots.  Bits: a literal gives its bit
    length, a sum the largest of its terms plus one bit per '+', products add
    and powers multiply.  Evaluation builds each term of every sum and each
    partial product of every product, so the total charges each term its
    dense size (pos + neg + 1) * (deg_Y + 1) * bits, with at least one bit,
    and each partial product before a product's value one bit per dense
    coefficient.  Then a product of k factors of positive degree costs about
    k^2 / 2, as its evaluation does."""
    op = node[0]
    if op == "int":
        return (0, 0, 0, abs(node[1]).bit_length(), 0, 1)
    if op == "var":  # T is charged as X is: it builds the same dense polynomials
        return (int(node[1] != "Y"), 0, int(node[1] == "Y"), 0, 0, 1)
    if op == "neg":
        return _size_reach(node[1])
    if op in ("sum", "mul"):
        reach = [_size_reach(c) for c in node[1]]
        summed = sum(r[4] for r in reach)
        power = max(r[5] for r in reach)
        if op == "sum":
            summed += sum((r[0] + r[1] + 1) * (r[2] + 1) * max(r[3], 1) for r in reach)
            return (*(max(r[k] for r in reach) for k in range(3)),
                    max(r[3] for r in reach) + len(reach) - 1, summed, power)
        pos, neg, dy = reach[0][:3]
        for r in reach[1:-1]:
            pos, neg, dy = pos + r[0], neg + r[1], dy + r[2]
            summed += (pos + neg + 1) * (dy + 1)
        return (*(sum(r[k] for r in reach) for k in range(4)), summed, power)
    if op == "pow":
        # x^0 still evaluates x; T^-k builds the denominator X^k
        e = max(abs(node[2]), 1)
        pos, neg, dy, bits, summed, power = _size_reach(node[1])
        pos, neg = (neg, pos) if node[2] < 0 else (pos, neg)
        return (pos * e, neg * e, dy * e, bits * e, summed, power * e)
    raise ParseError(f"unknown node {op!r}")


def _infer_ring(variables: set) -> Ring:
    if "T" in variables:
        if variables - {"T"}:
            raise ParseError("T cannot be mixed with X or Y")
        from .localization import LT  # loaded with Laurent input alone

        return LT
    if "Y" in variables:
        return ZXY
    if "X" in variables:
        return ZX
    return ZZ


def _evaluate(node, ring: Ring, env: dict) -> Element:
    op = node[0]
    if op == "int":
        return ring.from_int(node[1])
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return ring.neg(_evaluate(node[1], ring, env))
    if op in ("sum", "mul"):
        combine = ring.add if op == "sum" else ring.mul
        acc = _evaluate(node[1][0], ring, env)
        for child in node[1][1:]:
            acc = combine(acc, _evaluate(child, ring, env))
        return acc
    if op == "pow":
        base, k = _evaluate(node[1], ring, env), node[2]
        if k < 0:  # only T, a unit, takes one: (T^-1)^k, over the one denominator X^k
            base, k = ring.unit_inverse(base), -k
        return ring.pow(base, k)
    raise ParseError(f"unknown node {op!r}")


def _env_for(ring: Ring) -> dict:
    if ring == ZZ:
        return {}
    if ring == ZX:
        return {"X": ZX.gen}
    if ring == ZXY:
        return {"X": ZXY.constant(ZX.gen), "Y": ZXY.gen}
    return {ring.var: ring.fraction((1,), ZX.one)}  # the Laurent ring: T is X^1


def parse_expr(text: str) -> tuple[Ring, Element]:
    """Parse an expression and infer its ring from the variables used."""
    if len(text) > INPUT_LENGTH_CAP:
        raise DeskScaleError(
            f"desk-scale limit: input of {len(text)} characters exceeds {INPUT_LENGTH_CAP}"
        )
    ast, variables = _parse(text)
    ring = _infer_ring(variables)
    pos, neg, dy, bits, summed, power = _size_reach(ast)
    dx = pos + neg
    if power > EXPONENT_CAP:
        raise DeskScaleError(
            f"desk-scale limit: exponent {power} exceeds {EXPONENT_CAP} "
            "(nested exponents multiply)"
        )
    terms = (dx + 1) * (dy + 1)
    if terms > DENSE_TERMS_CAP:
        x = "T" if "T" in variables else "X"
        raise DeskScaleError(
            f"desk-scale limit: degrees up to {dx} in {x} and {dy} in Y need "
            f"{terms} dense coefficients, over {DENSE_TERMS_CAP}"
        )
    if terms * bits > DENSE_BITS_CAP:
        raise DeskScaleError(
            f"desk-scale limit: {terms} dense coefficients of up to {bits} bits "
            f"need {terms * bits} bits, over {DENSE_BITS_CAP}"
        )
    if summed > DENSE_BITS_CAP:
        raise DeskScaleError(
            f"desk-scale limit: the terms of sums need {summed} bits in dense "
            f"coefficients, over {DENSE_BITS_CAP}"
        )
    return ring, _evaluate(ast, ring, _env_for(ring))


def parse_in_ring(text: str, ring: Ring) -> Element:
    """Parse against a known target ring; constants embed into it.

    Unlike ``parse_expr`` it applies no exponent cap: it re-reads rendered
    engine output, whose Laurent units can carry any power of T.
    """
    ast, variables = _parse(text)
    env = _env_for(ring)
    missing = variables - set(env)
    if missing:
        raise ParseError(f"variables {sorted(missing)} are not available in {ring.name}")
    return _evaluate(ast, ring, env)


# ---------------------------------------------------------------------------
# rendering

def _join_terms(terms: list[tuple[bool, str]]) -> str:
    if not terms:
        return "0"
    out = []
    for i, (negative, body) in enumerate(terms):
        if i == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def _power_str(var: str, k: int) -> str:
    if k == 1:
        return var
    return f"{var}^{k}"


def _scalar_term(c, var: str, k: int) -> tuple[bool, str]:
    negative = c < 0
    mag = -c if negative else c
    if k == 0:
        return negative, str(mag)
    if mag == 1:
        return negative, _power_str(var, k)
    return negative, f"{mag}*{_power_str(var, k)}"


def _render_scalar_poly(p: Poly, var: str, low: int = 0) -> str:
    """The terms c*var^(low + k) of p, highest first; low shifts the powers
    of the residue of a Laurent element's normal form."""
    terms = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        terms.append(_scalar_term(c, var, low + k))
    return _join_terms(terms)


def _render_bivariate(a: Poly) -> str:
    terms: list[tuple[bool, str]] = []
    for k in range(len(a.coeffs) - 1, -1, -1):
        inner = a.coeffs[k]
        if not inner.coeffs:
            continue
        nonzero = [j for j, c in enumerate(inner.coeffs) if c != 0]
        if k == 0:
            s = _render_scalar_poly(inner, "X")
            if s.startswith("-"):
                terms.append((True, s[1:]))
            else:
                terms.append((False, s))
            continue
        if len(nonzero) == 1:
            j = nonzero[0]
            c = inner.coeffs[j]
            negative = c < 0
            mag = -c if negative else c
            pieces = []
            if mag != 1:
                pieces.append(str(mag))
            if j > 0:
                pieces.append(_power_str("X", j))
            pieces.append(_power_str("Y", k))
            terms.append((negative, "*".join(pieces)))
        else:
            terms.append((False, f"({_render_scalar_poly(inner, 'X')})*{_power_str('Y', k)}"))
    return _join_terms(terms)


def render(ring: Ring, a: Element) -> str:
    """Canonical textual form; re-parsing yields the same element."""
    if ring == ZZ:
        return str(a)
    if ring == ZX:
        return _render_scalar_poly(a, ring.var)
    if ring == ZXY:
        return _render_bivariate(a)
    (low,), body = ring.normal_form(a)  # the Laurent ring: T^low * body
    return _render_scalar_poly(body, ring.var, low)
