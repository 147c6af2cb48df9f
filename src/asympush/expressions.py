"""Small expression language: parser, evaluator, compiler, Taylor series, symbolic differentiation.

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

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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
    "compile_expr",
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


Expr = Num | Var | Neg | BinOp | Call
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


# Checked primitives shared by evaluate, compile_expr and taylor, so that each
# domain rule and its message is written once.


def _unbound(name: str):
    raise EvalError(f"unbound variable {name!r}")


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _power(a: float, c: float) -> float:
    if a == 0.0 and c < 0.0:
        raise EvalError("0 raised to a negative power")
    if a < 0.0 and c != round(c):
        raise EvalError(f"negative base {a} with non-integer exponent {c}")
    return a**c


def _log(a: float) -> float:
    if a <= 0.0:
        raise EvalError(f"log of non-positive value {a}")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise EvalError(f"sqrt of negative value {a}")
    return math.sqrt(a)


def _step(a: float) -> float:
    return 1.0 if a >= 0.0 else 0.0


_CALLS = {"exp": math.exp, "log": _log, "sin": math.sin, "cos": math.cos, "sqrt": _sqrt, "step": _step}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}
_EMIT = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_divide({}, {})", "^": "_power({}, {})"}


def evaluate(node: Expr, bindings: Bindings | None = None) -> float:
    """Walk the tree at one point: the reference that compile_expr must match."""
    b = bindings or {}
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(b[node.name]) if node.name in b else _unbound(node.name)
    if isinstance(node, Neg):
        return -evaluate(node.arg, b)
    if isinstance(node, Call):
        x = evaluate(node.arg, b)
        if node.func not in _CALLS:
            raise EvalError(f"unknown function {node.func!r}")
        return _CALLS[node.func](x)
    if isinstance(node, BinOp) and node.op in _BINOPS:
        return _BINOPS[node.op](evaluate(node.left, b), evaluate(node.right, b))
    raise TypeError(f"not an expression node: {node!r}")


# Distinct sources per benchmark pass: at most 24 (42 in a spec-mix run,
# selftest included), the longest 803 characters.
_CODE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(src: str):
    """The code object of an emitted source, compiled once per distinct source."""
    return compile(src, "<compile_expr>", "exec")


def compile_expr(node: Expr, params: Sequence[str]) -> Callable[..., float]:
    """Compile node once into a straight-line function of the positional params.

    The emitted function keeps one temporary per distinct node (by identity),
    so a subtree that diff shares is computed once per call.  Constants are
    passed by reference, not written into the source, and '/', '^', log and
    sqrt go through the checked primitives that evaluate uses.  The function
    returns what evaluate returns at the same bindings and raises where
    evaluate raises, at the same node: a name outside params raises EvalError
    when the function is called, not here.  A call of an unknown function
    (which parse never builds) is rejected here.

    The source therefore depends only on the shape of node: its operators,
    its sharing, its variable names and params.  Its code object is shared
    by shape through a least-recently-used cache of _CODE_CACHE_SIZE sources;
    each call still runs that code in a fresh namespace, so every function
    binds its own constants.  The cache holds no constant and no function,
    only source strings and their code objects: at worst _CODE_CACHE_SIZE of
    each, about 3 bytes per source character together (3 KB for the longest
    source of the benchmark, 803 characters, so about 0.4 MB for a full
    cache of such sources).  A benchmark pass (seed 901) emits 192 sources on
    push-sweep, 48 on spec-mix and 45 on hard-depth, of which 20, 17 and 24
    are distinct, so each pass after the first compiles nothing.
    """
    env: dict = {f"_{name}": fn for name, fn in _CALLS.items()}
    env.update(_unbound=_unbound, _divide=_divide, _power=_power)
    lines: list[str] = []
    operand: dict = {}  # id(node), or a variable name, -> its name in the emitted code
    args = {name: f"a{i}" for i, name in enumerate(params)}

    def key(nd: Expr):
        return nd.name if isinstance(nd, Var) else id(nd)

    # post-order, left before right, as evaluate visits the nodes; an explicit
    # stack, so that no recursive closure keeps the emitter's state alive
    stack = [(node, False)]
    while stack:
        nd, kids_done = stack.pop()
        k = key(nd)
        if k in operand:
            continue
        kids = (nd.left, nd.right) if isinstance(nd, BinOp) else (nd.arg,) if isinstance(nd, (Neg, Call)) else ()
        if kids and not kids_done:
            stack.append((nd, True))
            stack.extend((kid, False) for kid in reversed(kids))
            continue
        ops = [operand[key(kid)] for kid in kids]
        if isinstance(nd, Num):  # by reference: inf and nan have no literal
            operand[k] = f"k{len(env)}"
            env[operand[k]] = nd.value
            continue
        if isinstance(nd, Var):
            rhs = f"float({args[nd.name]})" if nd.name in args else f"_unbound({nd.name!r})"
        elif isinstance(nd, Neg):
            rhs = f"-{ops[0]}"
        elif isinstance(nd, Call) and nd.func in _CALLS:
            rhs = f"_{nd.func}({ops[0]})"
        elif isinstance(nd, Call):
            raise EvalError(f"unknown function {nd.func!r}")
        elif isinstance(nd, BinOp) and nd.op in _BINOPS:
            rhs = _EMIT[nd.op].format(*ops)
        else:
            raise TypeError(f"not an expression node: {nd!r}")
        operand[k] = f"t{len(lines)}"
        lines.append(f"    {operand[k]} = {rhs}\n")

    src = f"def compiled({', '.join(args.values())}):\n{''.join(lines)}    return {operand[key(node)]}\n"
    exec(_code(src), env)
    # the function holds env as its globals; taking it out of env leaves no
    # reference cycle, so it is freed with its owner instead of by the collector
    return env.pop("compiled")


def substitute(node: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable by another expression.

    A subtree shared in node, as diff shares them, maps to one shared result.
    """
    return _substitute(node, var, replacement, {})


def _substitute(nd: Expr, var: str, replacement: Expr, memo: dict) -> Expr:
    out = memo.get(id(nd))  # id of a node of the input -> its substituted copy
    if out is None:
        if isinstance(nd, Num):
            out = nd
        elif isinstance(nd, Var):
            out = replacement if nd.name == var else nd
        elif isinstance(nd, Neg):
            out = Neg(_substitute(nd.arg, var, replacement, memo))
        elif isinstance(nd, Call):
            out = Call(nd.func, _substitute(nd.arg, var, replacement, memo))
        elif isinstance(nd, BinOp):
            out = BinOp(
                nd.op,
                _substitute(nd.left, var, replacement, memo),
                _substitute(nd.right, var, replacement, memo),
            )
        else:
            raise TypeError(f"not an expression node: {nd!r}")
        memo[id(nd)] = out
    return out


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


def _depends(nd: Expr, var: str, memo: dict[int, bool]) -> bool:
    """Whether var occurs in nd; records the answer for every node of nd in memo, by id."""
    d = memo.get(id(nd))
    if d is None:
        if isinstance(nd, BinOp):
            d = _depends(nd.left, var, memo) | _depends(nd.right, var, memo)
        elif isinstance(nd, (Neg, Call)):
            d = _depends(nd.arg, var, memo)
        else:
            d = isinstance(nd, Var) and nd.name == var
        memo[id(nd)] = d
    return d


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
    dep: dict[int, bool] = {}  # id of each node -> whether its subtree holds var
    _depends(node, var, dep)

    def mul(u, v):
        return [sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(n + 1)]

    def dot(u, v, k):  # (1/k) sum_j j u_j v_{k-j}, the chain rule on series
        return sum(j * u[j] * v[k - j] for j in ks[:k]) / k

    def power(u, c):
        v = [_power(u[0], c) if u[0] else 1.0] + [0.0] * n
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
        if not dep[id(nd)]:
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
                v[0] = _log(u[0])
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
        if n and dep[id(nd.right)]:
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
