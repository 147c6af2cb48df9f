"""Small expression language: parser, evaluator, compiler, Taylor series, symbolic differentiation.

Grammar (EBNF, see docs/expression-grammar.md):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;
    atom    = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;

"^" is right-associative and binds tighter than unary minus; its exponent
must be a constant expression so that differentiation stays inside the
language.  Parentheses, calls, unary minus signs and exponents nest at most
MAX_NESTING deep.  Known functions: exp, log, sin, cos, sqrt, step.  step(s)
is the right-continuous Heaviside function (step(0) = 1).
"""

from __future__ import annotations

import functools
import math
import operator
import re
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
    "vanishes",
    "substitute",
    "central_fd",
    "MAX_NESTING",
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


class _Node:
    """Structural == and hash of expression nodes, walked with an explicit stack.

    The dataclass-generated methods recurse once per level, so a long sum or
    product exhausted the interpreter's stack.  A subtree shared by identity
    is compared and hashed once.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            cls = type(a)
            if a is b:
                continue
            if cls is not type(b):
                return False
            if cls is BinOp:
                if a.op != b.op:
                    return False
                stack += ((a.right, b.right), (a.left, b.left))
            elif cls is Neg or cls is Call:
                if cls is Call and a.func != b.func:
                    return False
                stack.append((a.arg, b.arg))
            elif cls is Num:
                if not (a.value is b.value or a.value == b.value):  # as a tuple of fields compares
                    return False
            elif a.name != b.name:
                return False
        return True

    def __hash__(self):
        hashes: dict[int, int] = {}  # id of each node -> its hash
        stack = [self]
        while stack:
            nd = stack[-1]
            cls = type(nd)
            kids = (nd.left, nd.right) if cls is BinOp else (nd.arg,) if cls is Neg or cls is Call else ()
            todo = [k for k in kids if id(k) not in hashes]
            if todo:
                stack += todo
                continue
            stack.pop()
            if cls is BinOp:
                h = hash((nd.op, hashes[id(nd.left)], hashes[id(nd.right)]))
            elif cls is Neg or cls is Call:
                h = hash((nd.func if cls is Call else "-", hashes[id(nd.arg)]))
            else:
                h = hash(nd.value if cls is Num else nd.name)
            hashes[id(nd)] = h
        return hashes[id(self)]


@dataclass(frozen=True, eq=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, eq=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, eq=False)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Call(_Node):
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call
Bindings = Mapping[str, float]


# ---------------------------------------------------------------------------
# tokenizer / parser
#
# A token is a tuple (kind, text, offset).  The kind of an operator or a
# parenthesis is its own character; the others are "num", "name" and "end".

MAX_NESTING = 100  # parentheses, unary minus signs and '^' exponents open inside one another

# The lexical classes are those of str: whitespace is isspace(), a digit is
# isdigit(), a name starts with isalpha() or "_" and goes on with isalnum() or
# "_".  In a str pattern, \s and \w are exactly the first and the last of
# these, but \d is isdecimal(); the digits that are not decimal (superscripts,
# circled digits) and the numerals that are neither letters nor digits are
# added to the pattern for a text that holds them.
_TOKEN = (
    r"([-+*/^()])"  # 1: operator or parenthesis
    r"|((?:[{d}]|\.[{d}])[{d}.]*(?:[eE][+-]?[{d}]+)?)"  # 2: number
    r"|({a}\w*)"  # 3: name
    r"|\s+"
    r"|(.)"  # 4: anything else
)
_SCAN = re.compile(_TOKEN.format(d=r"\d", a=r"[^\W\d]")).finditer


def _scanner(text: str):
    """finditer of the token pattern, with the odd digits and numerals of text added if it has any."""
    if text.isascii():
        return _SCAN
    odd = "".join({c for c in text if c.isalnum() and not (c.isalpha() or c.isdecimal())})
    if not odd:
        return _SCAN
    digits = re.escape("".join(c for c in odd if c.isdigit()))
    return re.compile(_TOKEN.format(d=r"\d" + digits, a="(?![" + re.escape(odd) + r"])[^\W\d]")).finditer


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text, from one scan, and an "end" token."""
    tokens = []
    for m in _scanner(text)(text):
        kind, lit, i = m.lastindex, m[0], m.start()
        if kind == 1:
            tokens.append((lit, lit, i))
        elif kind == 2:
            try:
                float(lit)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {lit!r}", i) from None
            tokens.append(("num", lit, i))
        elif kind == 3:
            tokens.append(("name", lit, i))
        elif kind == 4:
            raise ExprSyntaxError(f"unexpected character {lit!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


# Each rule takes the token list, the index of its first token and the
# nesting depth, and returns its node and the index of the token after it.


def _nest(depth: int, tok: tuple) -> int:
    if depth == MAX_NESTING:
        raise ExprSyntaxError(f"expression nested more than {MAX_NESTING} deep", tok[2])
    return depth + 1


def _expect_rparen(tokens: list, i: int) -> int:
    kind, lit, offset = tokens[i]
    if kind != ")":
        raise ExprSyntaxError(f"expected ')', found {lit or 'end of input'!r}", offset)
    return i + 1


def _parse_expr(tokens: list, i: int, depth: int) -> tuple[Expr, int]:
    node, i = _parse_term(tokens, i, depth)
    op = tokens[i][0]
    while op == "+" or op == "-":
        right, i = _parse_term(tokens, i + 1, depth)
        node = BinOp(op, node, right)
        op = tokens[i][0]
    return node, i


def _parse_term(tokens: list, i: int, depth: int) -> tuple[Expr, int]:
    node, i = _parse_factor(tokens, i, depth)
    op = tokens[i][0]
    while op == "*" or op == "/":
        right, i = _parse_factor(tokens, i + 1, depth)
        node = BinOp(op, node, right)
        op = tokens[i][0]
    return node, i


def _parse_factor(tokens: list, i: int, depth: int) -> tuple[Expr, int]:
    tok = tokens[i]
    if tok[0] == "-":
        arg, i = _parse_factor(tokens, i + 1, _nest(depth, tok))
        return Neg(arg), i
    return _parse_power(tokens, i, depth)


def _parse_power(tokens: list, i: int, depth: int) -> tuple[Expr, int]:
    base, i = _parse_atom(tokens, i, depth)
    tok = tokens[i]
    if tok[0] != "^":
        return base, i
    exponent, i = _parse_factor(tokens, i + 1, _nest(depth, tok))  # right-associative
    if free_vars(exponent):
        raise ExprSyntaxError("exponent of '^' must be a constant expression", tok[2])
    return BinOp("^", base, exponent), i


def _parse_atom(tokens: list, i: int, depth: int) -> tuple[Expr, int]:
    kind, lit, offset = tokens[i]
    if kind == "num":
        return Num(float(lit)), i + 1
    if kind == "name":
        paren = tokens[i + 1]
        if paren[0] != "(":
            return Var(lit), i + 1
        if lit not in FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {lit!r}", offset)
        arg, i = _parse_expr(tokens, i + 2, _nest(depth, paren))
        return Call(lit, arg), _expect_rparen(tokens, i)
    if kind == "(":
        node, i = _parse_expr(tokens, i + 1, _nest(depth, tokens[i]))
        return node, _expect_rparen(tokens, i)
    raise ExprSyntaxError(f"expected number, name or '(', found {lit or 'end of input'!r}", offset)


def parse(text: str) -> Expr:
    """The tree of text.  ExprSyntaxError, with the offset, for text outside the grammar."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(text)
    node, i = _parse_expr(tokens, 0, 0)
    kind, lit, offset = tokens[i]
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {lit!r}", offset)
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


# the two left-associative levels; a chain of operators of one level is a left spine
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def _spine(node: Expr, keep=None, across: bool = False) -> tuple[list[BinOp], Expr]:
    """The nodes down the left spine of node that share its level, top first, and the operand below them.

    The levels are '+'/'-' and '*'/'/'.  A parsed sum of n terms, or product
    of n factors, is n - 1 such nodes deep, so unparse, evaluate, substitute,
    diff and taylor walk it with this loop instead of one recursive call per
    operand.  With ``across``, the spine goes on through both levels, as in
    the derivative of a product, whose left spine alternates them.  When
    given, keep(nd) is False for the first node below the top that is to
    count as the operand below the spine.
    """
    spine = []
    if type(node) is not BinOp or node.op not in _LEVEL:
        return spine, node
    levels = (1, 2) if across else (_LEVEL[node.op],)
    while type(node) is BinOp and _LEVEL.get(node.op) in levels:
        if spine and keep is not None and not keep(node):
            break
        spine.append(node)
        node = node.left
    return spine, node


def _fold(node: Expr, walk, combine, keep=None, across: bool = False):
    """The chain at node, folded left to right.

    acc starts as walk of the operand below the spine; each spine node nd,
    bottom first, makes it combine(nd, acc, walk(nd.right)).
    """
    spine, node = _spine(node, keep, across)
    acc = walk(node)
    for nd in reversed(spine):
        acc = combine(nd, acc, walk(nd.right))
    return acc


def unparse(node: Expr) -> str:
    return _unparse(node, {})


def _unparse(node: Expr, memo: dict) -> str:
    text = memo.get(id(node))  # id of a node -> its text, so that a shared subtree is written once
    if text is not None:
        return text
    spine, node = _spine(node, lambda s: id(s) not in memo, across=True)
    if spine:
        # left-associative: an operand on the spine needs parentheses when it
        # binds looser than the node above it, a right operand also when it
        # binds alike; the opening parentheses all come before the bottom operand
        wrap = [_prec(b) < _LEVEL[nd.op] for nd, b in zip(spine, [*spine[1:], node])]
        parts = ["(" * sum(wrap), _unparse(node, memo)]
        for nd, w in zip(reversed(spine), reversed(wrap)):
            right = _unparse(nd.right, memo)
            op = f"){nd.op}" if w else nd.op
            parts.append(f"{op}({right})" if _prec(nd.right) <= _LEVEL[nd.op] else f"{op}{right}")
        text = "".join(parts)
        node = spine[0]
    elif isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Neg):
        text = _unparse(node.arg, memo)
        if _prec(node.arg) < _PREC["neg"]:
            text = f"({text})"
        text = f"-{text}"
    elif isinstance(node, Call):
        text = f"{node.func}({_unparse(node.arg, memo)})"
    elif isinstance(node, BinOp) and node.op == "^":
        left, right = _unparse(node.left, memo), _unparse(node.right, memo)
        # right-associative
        if _prec(node.left) <= _PREC["^"]:
            left = f"({left})"
        if _prec(node.right) < _PREC["^"]:
            right = f"({right})"
        text = f"{left}^{right}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[id(node)] = text
    return text


# ---------------------------------------------------------------------------
# evaluation


def free_vars(node: Expr) -> frozenset[str]:
    """The variable names in node, from a walk with an explicit stack that visits a shared subtree once."""
    names: set[str] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        nd = stack.pop()
        cls = type(nd)
        if cls is Var:
            names.add(nd.name)
        elif cls is BinOp or cls is Neg or cls is Call:
            if id(nd) not in seen:
                seen.add(id(nd))
                if cls is BinOp:
                    stack += (nd.left, nd.right)
                else:
                    stack.append(nd.arg)
        elif cls is not Num:
            raise TypeError(f"not an expression node: {nd!r}")
    return frozenset(names)


def vanishes(node: Expr) -> bool:
    """Whether node is 0 by its structure: a zero literal, or built from one.

    That is a product with such a factor, a quotient with such a numerator, a
    power of one to a positive literal exponent, or a negation, sum or
    difference of such nodes; a function call never is.  Walked with an
    explicit stack; a shared subtree is decided once.
    """
    zero: dict[int, bool] = {}
    stack = [node]
    while stack:
        nd = stack[-1]
        if id(nd) in zero:  # pushed again before it was decided
            stack.pop()
            continue
        cls = type(nd)
        kids = (nd.left, nd.right) if cls is BinOp else (nd.arg,) if cls is Neg else ()
        todo = [k for k in kids if id(k) not in zero]
        if todo:
            stack += todo
            continue
        stack.pop()
        if cls is Num:
            z = nd.value == 0.0
        elif cls is Neg:
            z = zero[id(nd.arg)]
        elif cls is BinOp and nd.op in "+-":
            z = zero[id(nd.left)] and zero[id(nd.right)]
        elif cls is BinOp and nd.op == "*":
            z = zero[id(nd.left)] or zero[id(nd.right)]
        elif cls is BinOp:
            z = zero[id(nd.left)] and (nd.op == "/" or _is_num(nd.right) and nd.right.value > 0.0)
        else:  # a variable or a function call
            z = False
        zero[id(nd)] = z
    return zero[id(node)]


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
# the names an emitted function finds in its globals, besides its constants
_ENV = {f"_{name}": fn for name, fn in _CALLS.items()}
_ENV.update(_unbound=_unbound, _divide=_divide, _power=_power)
_POST = object()  # compile_expr's stack marker


def evaluate(node: Expr, bindings: Bindings | None = None) -> float:
    """Walk the tree at one point: the reference that compile_expr must match.

    Like compile_expr, it computes a subtree shared by identity once.
    """
    return _evaluate(node, bindings or {}, {})


def _evaluate(node: Expr, b: Bindings, memo: dict) -> float:
    v = memo.get(id(node))  # id of a node -> its value
    if v is not None:
        return v
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(b[node.name]) if node.name in b else _unbound(node.name)
    if isinstance(node, Neg):
        v = -_evaluate(node.arg, b, memo)
    elif isinstance(node, Call):
        x = _evaluate(node.arg, b, memo)
        if node.func not in _CALLS:
            raise EvalError(f"unknown function {node.func!r}")
        v = _CALLS[node.func](x)
    elif isinstance(node, BinOp) and node.op in _LEVEL:
        v = _fold(
            node, lambda nd: _evaluate(nd, b, memo), lambda nd, u, w: _BINOPS[nd.op](u, w),
            lambda s: id(s) not in memo, across=True,
        )
    elif isinstance(node, BinOp) and node.op == "^":
        v = _power(_evaluate(node.left, b, memo), _evaluate(node.right, b, memo))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[id(node)] = v
    return v


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
    env = _ENV.copy()
    args = {name: f"a{i}" for i, name in enumerate(params)}
    lines: list[str] = []
    # id of each visited node, and each variable name, -> its name in the emitted code
    operand: dict = {}

    # post-order, left before right, as evaluate visits the nodes; an explicit
    # stack, on which _POST above a node marks that node's children as done
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        nd = pop()
        if nd is _POST:
            nd = pop()
            cls = type(nd)
            if cls is BinOp:
                if nd.op not in _EMIT:
                    raise TypeError(f"not an expression node: {nd!r}")
                rhs = _EMIT[nd.op].format(operand[id(nd.left)], operand[id(nd.right)])
            elif cls is Neg:
                rhs = f"-{operand[id(nd.arg)]}"
            elif nd.func in _CALLS:
                rhs = f"_{nd.func}({operand[id(nd.arg)]})"
            else:
                raise EvalError(f"unknown function {nd.func!r}")
        else:
            k = id(nd)
            if k in operand:
                continue
            cls = type(nd)
            if cls is BinOp:
                push(nd), push(_POST), push(nd.right), push(nd.left)
                continue
            if cls is Neg or cls is Call:
                push(nd), push(_POST), push(nd.arg)
                continue
            if cls is Num:  # by reference: inf and nan have no literal
                operand[k] = name = f"k{len(env)}"
                env[name] = nd.value
                continue
            if cls is not Var:
                raise TypeError(f"not an expression node: {nd!r}")
            name = nd.name
            if name in operand:  # one temporary per variable name
                operand[k] = operand[name]
                continue
            rhs = f"float({args[name]})" if name in args else f"_unbound({name!r})"
        operand[id(nd)] = temp = f"t{len(lines)}"
        if cls is Var:
            operand[nd.name] = temp
        lines.append(f"    {temp} = {rhs}\n")

    src = f"def compiled({', '.join(args.values())}):\n{''.join(lines)}    return {operand[id(node)]}\n"
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
    if out is None and type(nd) is BinOp and nd.op in _LEVEL:
        # down the left spine of a sum or product in a loop, as far as the first node already copied
        spine, nd = _spine(nd, lambda s: id(s) not in memo)
        out = _substitute(nd, var, replacement, memo)
        for s in reversed(spine):
            out = memo[id(s)] = BinOp(s.op, out, _substitute(s.right, var, replacement, memo))
    elif out is None:
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


def _diff_rule(nd: BinOp, du: Expr, dv: Expr) -> Expr:
    """The derivative of nd from du and dv, those of its operands: the sum, product or quotient rule."""
    if nd.op == "+":
        return _add(du, dv)
    if nd.op == "-":
        return _sub(du, dv)
    if nd.op == "*":
        return _add(_mul(du, nd.right), _mul(nd.left, dv))
    return _div(_sub(_mul(du, nd.right), _mul(nd.left, dv)), BinOp("^", nd.right, Num(2.0)))


def diff(node: Expr, var: str) -> Expr:
    if type(node) is BinOp and node.op in _LEVEL:
        return _fold(node, lambda nd: diff(nd, var), _diff_rule)
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
    if d is None and type(nd) is BinOp and nd.op in _LEVEL:
        spine, nd = _spine(nd, lambda s: id(s) not in memo, across=True)
        d = _depends(nd, var, memo)
        for s in reversed(spine):
            d = memo[id(s)] = _depends(s.right, var, memo) | d
    elif d is None:
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

    def chain(nd: BinOp, u, v):  # the series of nd from those of its operands
        if nd.op == "+":
            return list(map(operator.add, u, v))
        if nd.op == "-":
            return list(map(operator.sub, u, v))
        if nd.op == "*":
            return mul(u, v)
        if v[0] == 0.0:
            raise EvalError("division by zero")
        w = [0.0] * (n + 1)
        for k in range(n + 1):
            w[k] = (u[k] - sum(v[j] * w[k - j] for j in ks[:k])) / v[0]
        return w

    jets: dict[int, list[float]] = {}  # id of each node -> its series, so that a shared subtree is expanded once

    def jet(nd: Expr) -> list[float]:
        out = jets.get(id(nd))
        if out is None:
            out = jets[id(nd)] = expand(nd)
        return out

    def expand(nd: Expr) -> list[float]:
        if not dep[id(nd)]:
            return [evaluate(nd, b)] + [0.0] * n
        if type(nd) is BinOp and nd.op in _LEVEL:
            # a spine node without var is one constant, as in the recursion it replaces
            return _fold(nd, jet, chain, lambda s: dep[id(s)] and id(s) not in jets, across=True)
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
