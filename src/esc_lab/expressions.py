"""Recursive-descent parser for polynomial-style cost expressions.

Grammar (positions in error messages are 1-based character offsets):

    expr   = term { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = "-" unary | power
    power  = atom [ "^" unary ]          # right-associative, binds tightest
    atom   = NUMBER | IDENT | "(" expr ")"

Identifiers are ``theta1`` .. ``thetaN``; numbers are decimal literals with an
optional exponent. The parser recurses once per nesting level, so it rejects
more than :data:`MAX_NESTING` levels, counted as open parentheses, unary
minuses and ``^`` exponents around a point of the text, with an
:class:`ExpressionError` at the token that opens the level too many. Chains
of binary operators (a sum of any number of terms) are parsed and compiled
by loops and have no length limit.

:func:`compile_expression` parses the text once and lowers the tree to one
Python function of straight-line numpy calls, one per distinct operation,
applied in the order a left-to-right walk of the tree would apply them. It
works componentwise on arrays of shape (..., n). A ``^`` whose exponent is an
even integer literal raises the absolute value of its base: the value is the
same, J is exactly even in that base, and numpy's ``power`` stays on its
fast path, which a negative base leaves for a much slower scalar ``pow``
call. Any other exponent uses plain ``power``, so odd powers keep their sign
and a negative base to a non-integer power is NaN.

The parser folds an operation on literals into one literal (a ``^`` through
numpy's ``power``, by the same rule), so a subexpression of literals that
divides by zero is rejected, and every fold of the tree sees
``theta1^(2 + 2)`` as ``theta1^4``. The compiled function carries the tree
(``tree``) and its operations over Python floats as text (``scalar``), which
the full loop inlines. :func:`polynomial_degree` folds the tree into the
degree of J as a polynomial in theta, or None, which sizes the period
quadrature; :func:`dither_expansion` into the polynomial that
J(theta + a * sigma) is in the dither phases sigma, with coefficients as
float code in theta (:class:`FloatCode`), which the average system contracts
with the phases' period means; and :func:`gradient` into dJ/dtheta at a point.
"""

from __future__ import annotations

import operator
import re
import struct
from math import copysign, isfinite

__all__ = ["ExpressionError", "MAX_NESTING", "FloatCode", "compile_expression", "dither_expansion",
           "gradient", "polynomial_degree"]

MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExpressionError(ValueError):
    """Parse failure; ``position`` is the 1-based offset of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {text[bad_at]!r}", bad_at + 1)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num") + 1))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)
        self.advance()

    def nested(self, parse, pos: int):
        """``parse()`` one nesting level deeper; ``pos`` is the token that opens the level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(f"nesting deeper than {MAX_NESTING} levels", pos)
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = _node("add" if value == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                node = _node("mul" if value == "*" else "div", node, rhs)
            else:
                return node

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return _node("neg", self.nested(self.unary, pos))
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return _node("pow", base, self.nested(self.unary, pos))
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return ("const", value)
        if kind == "ident":
            m = re.fullmatch(r"theta(\d+)", value)
            if m is None:
                raise ExpressionError(f"unknown identifier {value!r}", pos)
            index = int(m.group(1))
            if not 1 <= index <= self.n:
                raise ExpressionError(
                    f"variable {value!r} out of range for dimension {self.n}", pos
                )
            return ("var", index - 1)
        if kind == "op" and value == "(":
            node = self.nested(self.expr, pos)
            self.expect_op(")")
            return node
        raise ExpressionError("expected a number, variable, or '('", pos)


_BINARY = {"add": ("+", operator.add), "sub": ("-", operator.sub),
           "mul": ("*", operator.mul), "div": ("/", operator.truediv)}


def _is_even_integer(node) -> bool:
    return node[0] == "const" and node[1].is_integer() and node[1] % 2 == 0


def _fold_literals(op: str, *operands) -> float:
    """The operation ``op`` on literal nodes, as a Python float.

    A ``^`` goes through numpy's ``power`` by the rule the compiled code
    applies: of |base| under an even integer literal exponent.
    """
    values = [operand[1] for operand in operands]
    if op == "neg":
        return -values[0]
    if op == "pow":
        import numpy as np
        base, exponent = values
        with np.errstate(all="ignore"):
            return float(np.power(abs(base) if _is_even_integer(operands[1]) else base, exponent))
    try:
        return _BINARY[op][1](*values)
    except ZeroDivisionError:
        raise ValueError("a subexpression of literals divides by zero") from None


def _node(op: str, *operands):
    """The node ``(op, *operands)``, folded to a literal where every operand is one."""
    if all(operand[0] == "const" for operand in operands):
        return ("const", _fold_literals(op, *operands))
    return (op, *operands)


def _fold(tree, visit):
    """``visit(node, values)`` on every node, operands first; returns the root's value.

    ``values`` holds the values of the node's operands, left to right, and is
    empty for a literal or a variable. The walk runs on an explicit stack, so a
    tree of any depth (a left-nested chain of thousands of additions) is folded
    without Python recursion.
    """
    stack = [(tree, [])]                      # (node, values of its operands so far)
    while True:
        node, values = stack[-1]
        if node[0] not in ("const", "var") and len(values) < len(node) - 1:
            stack.append((node[1 + len(values)], []))
            continue
        value = visit(node, values)
        stack.pop()
        if not stack:
            return value
        stack[-1][1].append(value)


def _floats(values) -> tuple[float, ...]:
    """A number, or a flat sequence or array of numbers, as a tuple of Python floats."""
    values = values.tolist() if hasattr(values, "tolist") else values
    return tuple(map(float, values)) if isinstance(values, (list, tuple)) else (float(values),)


def _literal(value: float) -> str:
    """``value`` as Python source for scalar code: its repr, in parentheses when negative;
    ``inf`` and ``nan`` are names the code's namespace binds (a NaN keeps its sign)."""
    text = repr(value) if value == value else "nan" if copysign(1.0, value) > 0 else "-nan"
    return f"({text})" if text.startswith("-") else text


def _emit(tree):
    """Lower ``tree`` to straight-line Python: one assignment per distinct operation.

    Returns (source, constants, scalar). The parser has folded every
    operation on literals, so each operation names a variable. Operands are
    evaluated left to right, so the function makes the numpy calls a recursive
    walk of the tree would make, in the same order, except that an operation already
    emitted is not emitted again: each is keyed by its text (operator and
    operand names), each literal by its bits (a folded NaN of either sign has
    one repr), and a repeat reuses the first one's name, so
    ``(theta1 - 1)^2 + (theta1 - 1)^2`` makes one subtraction and one power.
    The tree is walked by :func:`_fold`, so one of any depth is lowered
    without Python recursion. A tree that names no variable returns its
    constant once per point, shape (...). Literals are bound by name
    (``1e999`` has no source form but ``inf``), and the code is flat, so the
    Python compiler sees no nesting.

    ``scalar`` is the same operations over Python floats, as text: a pair of
    the lines ``t<k> = ...`` over the names ``x0`` .. ``x{n-1}``, and the
    expression of J that reads them (see :func:`compile_expression`).
    """
    lines: list[str] = []
    scalar: list[str] = []
    constants: dict[str, float] = {}
    names: dict = {}                          # literal bits or operation text -> its name
    variables: set[int] = set()

    def name(operand) -> str:
        if isinstance(operand, str):
            return operand
        key = names.setdefault(struct.pack("<d", operand), f"c{len(constants)}")
        constants[key] = operand
        return key

    def visit(node, operands):
        op = node[0]
        if op == "const":
            return node[1]
        if op == "var":
            variables.add(node[1])
            return f"x{node[1]}"
        floats = [v if isinstance(v, str) else _literal(v) for v in operands]
        operands = [name(v) for v in operands]
        if op == "neg":
            expr, value = f"-{operands[0]}", f"-{floats[0]}"
        elif op == "pow":
            base, exponent = operands
            # a float ** an integral float takes |base| and signs the result itself, so it
            # rounds as numpy's power of |base| does under an even exponent; math.pow
            # raises where ** would return a complex number
            integral = node[2][0] == "const" and node[2][1].is_integer()
            value = (f"{floats[0]} ** {floats[1]}" if integral
                     else f"pow({floats[0]}, {floats[1]})")
            if _is_even_integer(node[2]):
                base = f"absolute({base})"
            expr = f"power({base}, {exponent})"
        else:
            symbol = _BINARY[op][0]
            expr, value = (f"{operands[0]} {symbol} {operands[1]}",
                           f"{floats[0]} {symbol} {floats[1]}")
        if expr not in names:
            names[expr] = f"t{len(lines)}"
            lines.append(f"    {names[expr]} = {expr}")
            scalar.append(f"{names[expr]} = {value}")
        return names[expr]

    root = _fold(tree, visit)
    result = name(root)
    header = [f"    x{i} = x[..., {i}]" for i in sorted(variables)]
    if variables:
        value = f"asarray({result}, dtype=float)"
    else:
        value = f"full(x.shape[:-1], {result}, dtype=float)"
    body = ["def evaluate(x):", "    x = asarray(x, dtype=float)", *header, *lines,
            f"    return {value}"]
    j = root if isinstance(root, str) else _literal(root)
    return "\n".join(body) + "\n", constants, (tuple(scalar), j)


def compile_expression(text: str, n: int):
    """Parse ``text`` once and return one compiled function mapping arrays (..., n) -> (...).

    The function carries the parse tree (``tree``) and its operations over Python floats
    as text the full loop inlines (``scalar``, see :func:`_emit`), also through
    ``functools.wraps``. Where numpy returns inf or NaN these floats can raise
    (ZeroDivisionError, OverflowError, or ValueError from ``math.pow``); the loop then
    evaluates that point's J through the function itself. Its first call loads numpy.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    tree = _Parser(text, n).parse()
    source, constants, scalar = _emit(tree)

    def asarray(*args, **kwargs):               # the first call binds numpy's functions
        import numpy as np
        namespace.update(asarray=np.asarray, full=np.full, absolute=np.abs, power=np.power)
        return np.asarray(*args, **kwargs)

    namespace = {"asarray": asarray, **constants}
    exec(compile(source, "<cost expression>", "exec"), namespace)
    evaluate = namespace["evaluate"]
    evaluate.tree, evaluate.scalar = tree, scalar
    return evaluate


def polynomial_degree(tree) -> int | None:
    """The degree of the parse tree ``tree`` as a polynomial in theta, or None if it has none.

    A literal has degree 0 and a variable degree 1; +, - and unary minus take
    the larger degree of their operands, and * their sum. A division keeps a
    polynomial only when its divisor is a literal, and ``^`` only when its
    exponent is a non-negative integer literal (it multiplies the base's
    degree). Anything else has no degree. The parser folds literal arithmetic,
    so ``theta1^(1 + 1)`` has degree 2; the rule reads the tree, not its
    values: ``theta1^0.5 * 0`` has none.
    """

    def visit(node, operands):
        op = node[0]
        if op in ("const", "var"):
            return int(op == "var")
        if None in operands:
            return None
        if op in ("add", "sub", "neg"):
            return max(operands)
        if op == "mul":
            return operands[0] + operands[1]
        if op == "div":
            return operands[0] if node[2][0] == "const" else None
        exponent = node[2]
        if exponent[0] == "const" and exponent[1].is_integer() and exponent[1] >= 0:
            return operands[0] * int(exponent[1])
        return None

    return _fold(tree, visit)


class FloatCode:
    """Straight-line Python over floats under construction, and the terms it evaluates.

    A value is held as a *sum*: a dict from a key, a sorted tuple of at most
    two names (``()`` for the constant), to a nonzero float weight, meaning
    the sum of weight * product(names). Sums add and scale as dicts, without
    code. :meth:`atom` turns any other sum into one weighted name by emitting
    one assignment for it, so that the product of two atoms is again a key.
    :attr:`terms` counts the non-constant terms of all the code emitted, one
    multiply-add each: what a call of the finished function costs.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.terms = 0
        self.products: dict[tuple, str] = {}  # a two-name key -> the name assigned its product

    def text(self, total: dict) -> str:
        """``total`` as a Python expression."""
        if not total:
            return "0.0"
        self.terms += sum(1 for key in total if key)
        return " + ".join("*".join([repr(w)] * (w != 1.0 or not key) + list(key))
                          for key, w in total.items())

    def atom(self, total: dict) -> dict:
        """``total`` as a sum of at most one key of at most one name."""
        if len(total) <= 1 and all(len(key) <= 1 for key in total):
            return total
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {self.text(total)}")
        if len(total) == 1:
            (key, w), = total.items()
            if len(key) == 2 and w == 1.0:
                self.products[key] = name
        return {(name,): 1.0}

    def key(self, k1: tuple, k2: tuple) -> tuple:
        """The key of the product of two keys of at most one name each; a product
        already assigned to a name is that name."""
        key = tuple(sorted(k1 + k2))
        return (self.products[key],) if key in self.products else key

    @staticmethod
    def add(a: dict, b: dict, weight: float = 1.0) -> dict:
        """The sum a + weight * b, without its zero terms."""
        out = dict(a)
        for key, w in b.items():
            out[key] = out.get(key, 0.0) + weight * w
        return {key: w for key, w in out.items() if w != 0.0}


def dither_expansion(tree, amplitudes, code: FloatCode, max_terms: int):
    """J(theta + a * sigma) for the parse tree ``tree``, as a polynomial in sigma, or None.

    Returns a dict from an exponent tuple (one power per channel) to the
    coefficient of that sigma monomial, a sum of ``code`` (:class:`FloatCode`)
    over the names ``x0`` .. ``x{n-1}`` for theta. The coefficient of the zero
    tuple is J(theta), computed as the tree computes it: there is no expansion
    about a reference point, so ``(theta1 - 100)^4`` raises theta1 - 100 to
    the fourth. The fold follows :func:`polynomial_degree`: ``theta_i``
    becomes theta_i + a_i * sigma_i; +, - and * combine coefficients; ``^`` by
    a non-negative integer literal repeats the product; and / divides by a
    literal only. Returns None where that rule finds no polynomial, where a
    literal or a weight is not finite or a divisor is 0, and once ``code``
    holds more than ``max_terms`` terms or a node more than ``max_terms``
    monomials. ``amplitudes`` holds one a_i per variable.
    """
    amplitudes = [float(a) for a in amplitudes]
    zero = (0,) * len(amplitudes)

    def atoms(p):
        return {alpha: code.atom(c) for alpha, c in p.items()}

    def product(p, q):
        p, q, out = atoms(p), atoms(q), {}
        for alpha, c in p.items():
            (k1, w1), = c.items()
            for beta, d in q.items():
                (k2, w2), = d.items()
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                out[gamma] = code.add(out.get(gamma, {}), {code.key(k1, k2): w1 * w2})
        return {gamma: c for gamma, c in out.items() if c}

    def fold(node, operands):
        op = node[0]
        if op == "const":
            return {zero: {(): node[1]}} if node[1] != 0.0 else {}
        if op == "var":
            i = node[1]
            return {zero: {(f"x{i}",): 1.0}, zero[:i] + (1,) + zero[i + 1 :]: {(): amplitudes[i]}}
        if None in operands:
            return None
        if op in ("add", "sub"):
            p, q = operands
            sign, out = (1.0 if op == "add" else -1.0), dict(p)
            for alpha, d in q.items():            # p's other coefficients stand as they are
                if c := code.add(p.get(alpha, {}), d, sign):
                    out[alpha] = c
                else:
                    out.pop(alpha, None)
            return out
        if op == "neg":
            return {alpha: {key: -w for key, w in c.items()} for alpha, c in operands[0].items()}
        if op == "mul":
            return product(*operands)
        if op == "div":
            if node[2][0] != "const" or not node[2][1]:   # a variable divisor, or a zero one
                return None
            divisor = node[2][1]
            return {alpha: c for alpha, d in operands[0].items()
                    if (c := {key: w / divisor for key, w in d.items() if w / divisor != 0.0})}
        literal = node[2]
        if literal[0] != "const" or not literal[1].is_integer() or literal[1] < 0:
            return None
        if literal[1] > max_terms:                # a power of a non-constant has more monomials
            return None
        base, out = atoms(operands[0]), {zero: {(): 1.0}}
        for _ in range(int(literal[1])):
            out = product(out, base)
            if code.terms > max_terms or len(out) > max_terms:
                return None
        return out

    def visit(node, operands):
        poly = fold(node, operands)
        if poly is None or code.terms > max_terms or len(poly) > max_terms:
            return None
        finite = all(isfinite(w) for c in poly.values() for w in c.values())
        return poly if finite else None

    return _fold(tree, visit)


def gradient(tree, theta):
    """dJ/dtheta of the parse tree ``tree`` at ``theta`` (n floats, or the (n, m) transpose of
    m points, for (n, m) partials): a first-order jet fold.

    Each node carries its value and, in float64, a partial for each variable its subtree
    names (Griewank & Walther, *Evaluating Derivatives*, ch. 13); any other is an exact 0
    that no rule multiplies, so an infinite partial makes no NaN beside it. u/v gives
    (u' - (u/v) v') / v; a ``^`` by a literal c gives c u^(c-1) u', exactly 0 for c = 0,
    any other u^v (v' ln u + v u'/u); values are the compiled function's (|u| under an
    even integer literal exponent). A derivative that is not finite reads inf or NaN.
    """
    import numpy as np

    def times(s, partials):
        return {i: s * d for i, d in partials.items()}

    def plus(a, b):                           # a partial that is not there adds as 0
        return {i: a.get(i, 0.0) + b.get(i, 0.0) for i in a.keys() | b.keys()}

    def visit(node, operands):
        op = node[0]
        if op == "const":
            return np.float64(node[1]), {}
        if op == "var":
            return np.float64(theta[node[1]]), {node[1]: np.float64(1.0)}
        if op == "neg":
            (u, du), = operands
            return -u, times(-1.0, du)
        (u, du), (v, dv) = operands
        if op in ("add", "sub"):
            return _BINARY[op][1](u, v), plus(du, times(1.0 if op == "add" else -1.0, dv))
        if op == "mul":
            return u * v, plus(times(v, du), times(u, dv))
        if op == "div":
            q = u / v
            return q, {i: d / v for i, d in plus(du, times(-q, dv)).items()}
        value = np.power(abs(u) if _is_even_integer(node[2]) else u, v)
        if node[2][0] == "const":
            return value, (times(v * np.power(u, v - 1.0), du) if v != 0.0 else {})
        return value, times(value, plus({i: v * d / u for i, d in du.items()},
                                        times(np.log(u), dv)))

    with np.errstate(all="ignore"):
        partials = _fold(tree, visit)[1]
    shape = np.shape(theta)[1:]
    return np.array([np.broadcast_to(partials.get(i, 0.0), shape) for i in range(len(theta))])
