"""Small expression language: parser, evaluator, Taylor series, symbolic differentiation.

Grammar (EBNF, see docs/expression-grammar.md):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;
    atom    = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;

"^" is right-associative and binds tighter than unary minus; its exponent
must be a constant expression so that differentiation stays inside the
language.  Known functions: exp, log, sin, cos, sqrt, step.  step(s) is the
right-continuous Heaviside function (step(0) = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprSyntaxError",
    "EvalError",
    "DiffError",
    "parse",
    "unparse",
    "evaluate",
    "diff",
    "taylor",
    "free_vars",
    "substitute",
    "central_fd",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "step")


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Unbound variable or domain error during evaluation."""


class DiffError(ValueError):
    """Differentiation through step() w.r.t. an involved variable."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]
Bindings = Mapping[str, float]


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "lparen", "rparen", "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {lit!r}", i) from None
            tokens.append(_Token("num", lit, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif c in "+-*/^":
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {what}, found {tok.text or 'end of input'!r}", tok.offset
            )
        return self.next()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exponent = self.parse_factor()  # right-associative
            if free_vars(exponent):
                raise ExprSyntaxError(
                    "exponent of '^' must be a constant expression", tok.offset
                )
            return BinOp("^", base, exponent)
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.next()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.offset)
                self.next()
                arg = self.parse_expr()
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "lparen":
            self.next()
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        raise ExprSyntaxError(
            f"expected number, name or '(', found {tok.text or 'end of input'!r}",
            tok.offset,
        )


def parse(text: str) -> Expr:
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.offset)
    return node


# ---------------------------------------------------------------------------
# unparse

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def unparse(node: Expr) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = unparse(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    if isinstance(node, BinOp):
        lp, rp = _prec(node.left), _prec(node.right)
        me = _PREC[node.op]
        left = unparse(node.left)
        right = unparse(node.right)
        # left-associative for + - * /, right-associative for ^
        if node.op == "^":
            if lp <= me:
                left = f"({left})"
            if rp < me:
                right = f"({right})"
        else:
            if lp < me:
                left = f"({left})"
            if rp <= me:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation


def free_vars(node: Expr) -> frozenset[str]:
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return free_vars(node.arg)
    if isinstance(node, Call):
        return free_vars(node.arg)
    if isinstance(node, BinOp):
        return free_vars(node.left) | free_vars(node.right)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Expr, bindings: Bindings | None = None) -> float:
    b = bindings or {}
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(b[node.name])
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, b)
    if isinstance(node, Call):
        x = evaluate(node.arg, b)
        if node.func == "exp":
            return math.exp(x)
        if node.func == "log":
            if x <= 0.0:
                raise EvalError(f"log of non-positive value {x}")
            return math.log(x)
        if node.func == "sin":
            return math.sin(x)
        if node.func == "cos":
            return math.cos(x)
        if node.func == "sqrt":
            if x < 0.0:
                raise EvalError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        if node.func == "step":
            return 1.0 if x >= 0.0 else 0.0
        raise EvalError(f"unknown function {node.func!r}")
    if isinstance(node, BinOp):
        lhs = evaluate(node.left, b)
        rhs = evaluate(node.right, b)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            if rhs == 0.0:
                raise EvalError("division by zero")
            return lhs / rhs
        if node.op == "^":
            if lhs == 0.0 and rhs < 0.0:
                raise EvalError("0 raised to a negative power")
            if lhs < 0.0 and rhs != round(rhs):
                raise EvalError(f"negative base {lhs} with non-integer exponent {rhs}")
            return lhs**rhs
    raise TypeError(f"not an expression node: {node!r}")


def substitute(node: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable by another expression."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return replacement if node.name == var else node
    if isinstance(node, Neg):
        return Neg(substitute(node.arg, var, replacement))
    if isinstance(node, Call):
        return Call(node.func, substitute(node.arg, var, replacement))
    if isinstance(node, BinOp):
        return BinOp(
            node.op,
            substitute(node.left, var, replacement),
            substitute(node.right, var, replacement),
        )
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# symbolic differentiation
#
# Smart constructors fold literal subtrees and drop additive/multiplicative
# identities; no further simplification, so diff output stays predictable.


def _is_num(node: Expr, value: float | None = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def diff(node: Expr, var: str) -> Expr:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return _neg(diff(node.arg, var))
    if isinstance(node, Call):
        if var not in free_vars(node.arg):
            return Num(0.0)
        inner = diff(node.arg, var)
        if node.func == "exp":
            return _mul(node, inner)
        if node.func == "log":
            return _div(inner, node.arg)
        if node.func == "sin":
            return _mul(Call("cos", node.arg), inner)
        if node.func == "cos":
            return _neg(_mul(Call("sin", node.arg), inner))
        if node.func == "sqrt":
            return _div(inner, _mul(Num(2.0), node))
        if node.func == "step":
            raise DiffError(
                f"cannot differentiate step() w.r.t. {var!r}: "
                "piecewise-constant subtree depends on the variable"
            )
        raise DiffError(f"unknown function {node.func!r}")
    if isinstance(node, BinOp):
        if node.op == "+":
            return _add(diff(node.left, var), diff(node.right, var))
        if node.op == "-":
            return _sub(diff(node.left, var), diff(node.right, var))
        if node.op == "*":
            return _add(
                _mul(diff(node.left, var), node.right),
                _mul(node.left, diff(node.right, var)),
            )
        if node.op == "/":
            num = _sub(
                _mul(diff(node.left, var), node.right),
                _mul(node.left, diff(node.right, var)),
            )
            return _div(num, BinOp("^", node.right, Num(2.0)))
        if node.op == "^":
            # exponent subtree is constant by parser invariant
            if var in free_vars(node.right):
                raise DiffError("'^' exponent depends on the differentiation variable")
            c = evaluate(node.right)
            return _mul(
                _mul(Num(c), BinOp("^", node.left, Num(c - 1.0))),
                diff(node.left, var),
            )
    raise TypeError(f"not an expression node: {node!r}")


def taylor(node: Expr, var: str, at: float, n: int, bindings: Bindings | None = None) -> list[float]:
    """Taylor coefficients c_0..c_n of node in var at var = at; c_k = (k-th derivative)/k!.

    Truncated series are pushed through the tree by the recurrences of Griewank
    and Walther, Evaluating Derivatives (2008), ch. 13, at O(n^2) per node.
    Raises EvalError where evaluate would and DiffError where diff would; a
    power of a series that vanishes at the point has coefficients only below
    its exponent, unless that is a non-negative integer.
    """
    b = {**(bindings or {}), var: at}
    ks = range(1, n + 1)

    def mul(u, v):
        return [sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(n + 1)]

    def dot(u, v, k):  # (1/k) sum_j j u_j v_{k-j}, the chain rule on series
        return sum(j * u[j] * v[k - j] for j in ks[:k]) / k

    def power(u, c):
        if u[0] < 0.0 and c != round(c):
            raise EvalError(f"negative base {u[0]} with non-integer exponent {c}")
        v = [u[0] ** c if u[0] else 1.0] + [0.0] * n
        if u[0]:
            for k in ks:
                v[k] = ((c + 1.0) * dot(u, v, k) - sum(u[j] * v[k - j] for j in ks[:k])) / u[0]
        elif c == round(c) and c >= 0.0:  # u^c = O((var - at)^c): n + 1 factors suffice
            for _ in range(min(int(c), n + 1)):
                v = mul(v, u)
        elif n > c:
            raise EvalError(f"0 raised to {c} has no derivative of order {n}")
        else:
            v[0] = 0.0
        return v

    def jet(nd: Expr) -> list[float]:
        if var not in free_vars(nd):
            return [evaluate(nd, b)] + [0.0] * n
        if isinstance(nd, Var):
            return [at, 1.0, *[0.0] * n][: n + 1]
        if isinstance(nd, Neg):
            return [-c for c in jet(nd.arg)]
        if isinstance(nd, Call) and nd.func == "step":
            if n:
                raise DiffError(f"cannot differentiate step() w.r.t. {var!r}")
            return [evaluate(nd, b)]
        if isinstance(nd, Call):
            u, v = jet(nd.arg), [0.0] * (n + 1)
            if nd.func == "sqrt":
                return power(u, 0.5)
            if nd.func == "exp":
                v[0] = math.exp(u[0])
                for k in ks:
                    v[k] = dot(u, v, k)
                return v
            if nd.func == "log":
                if u[0] <= 0.0:
                    raise EvalError(f"log of non-positive value {u[0]}")
                v[0] = math.log(u[0])
                for k in ks:
                    v[k] = (u[k] - dot(v, u, k)) / u[0]
                return v
            if nd.func not in ("sin", "cos"):
                raise EvalError(f"unknown function {nd.func!r}")
            s, c = [math.sin(u[0])] + v[1:], [math.cos(u[0])] + v[1:]
            for k in ks:
                s[k], c[k] = dot(u, c, k), -dot(u, s, k)
            return s if nd.func == "sin" else c
        u, v = jet(nd.left), jet(nd.right)
        if nd.op in "+-":
            return [p + q if nd.op == "+" else p - q for p, q in zip(u, v)]
        if nd.op == "*":
            return mul(u, v)
        if nd.op == "/":
            if v[0] == 0.0:
                raise EvalError("division by zero")
            w = [0.0] * (n + 1)
            for k in range(n + 1):
                w[k] = (u[k] - sum(v[j] * w[k - j] for j in ks[:k])) / v[0]
            return w
        if n and var in free_vars(nd.right):
            raise DiffError("'^' exponent depends on the differentiation variable")
        return power(u, v[0])

    return jet(node)


def central_fd(node: Expr, var: str, bindings: Bindings, h: float = 1e-4) -> float:
    """Richardson-extrapolated central finite difference, for checking diff."""

    def d(step: float) -> float:
        up = dict(bindings)
        dn = dict(bindings)
        up[var] = bindings[var] + step
        dn[var] = bindings[var] - step
        return (evaluate(node, up) - evaluate(node, dn)) / (2.0 * step)

    d1, d2 = d(h), d(h / 2.0)
    return (4.0 * d2 - d1) / 3.0
