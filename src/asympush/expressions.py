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
import sys
from typing import Callable, Mapping, Sequence

from ._record import Record

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
    "parse_in",
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


class _Node(Record):
    """Structural ==, hash and repr of expression nodes, as loops.

    A subtree shared by identity is compared, hashed and written once, and a
    tree of any depth is walked without recursion.
    """

    __slots__ = ()

    def __repr__(self):
        """A frozen dataclass's text, written from a stack; a non-leaf subtree met again is
        written #n#, and its first text gets the label #n=."""
        starts, labels, parts, stack = {}, {}, [], [self]  # starts: id of a node written -> its first part
        while stack:
            nd = stack.pop()
            if type(nd) is str:
                parts.append(nd)
            elif id(nd) in starts:
                if id(nd) not in labels:
                    labels[id(nd)] = len(labels) + 1
                    parts[starts[id(nd)]] = f"#{len(labels)}=" + parts[starts[id(nd)]]
                parts.append(f"#{labels[id(nd)]}#")
            else:
                if _kids(nd):
                    starts[id(nd)] = len(parts)
                pieces = [f"{type(nd).__qualname__}("]
                for i, name in enumerate(nd._fields):  # a field that is not a node is text already
                    value = getattr(nd, name)
                    pieces += [f"{', ' if i else ''}{name}=", value if isinstance(value, _Node) else repr(value)]
                stack += reversed([*pieces, ")"])
        return "".join(parts)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        shapes: dict[tuple, int] = {}  # the shape of each node of either tree -> its number
        return _shape_number(self, shapes) == _shape_number(other, shapes)

    def __hash__(self):
        return _shape_number(self, None)


def _shape_number(node: "Expr", shapes: dict | None) -> int:
    """The number shapes gives the shape of node, after numbering every new shape met in the walk.

    A shape is a node's class or operator, its value or name, and the numbers
    of its children, so two trees are equal exactly when their roots get one
    number.  Number values compare as a tuple of fields does: Num(0.0) is
    Num(-0.0), and a NaN equals only itself.  Without shapes, the number of
    a shape is its hash, and that of the root is the structural hash.
    """
    number: dict[int, int] = {}  # id of each node -> the number of its shape
    for nd in _postorder(node):
        cls = type(nd)
        if cls is BinOp:
            shape = (nd.op, number[id(nd.left)], number[id(nd.right)])
        elif cls is Neg or cls is Call:
            shape = (nd.func if cls is Call else cls, number[id(nd.arg)])
        else:
            shape = (cls, nd.value if cls is Num else nd.name)
        number[id(nd)] = hash(shape) if shapes is None else shapes.setdefault(shape, len(shapes))
    return number[id(node)]


class Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):  # op is one of + - * / ^
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Call(_Node):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)


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


def parse_in(expr: str | Expr, names: Sequence[str], what: str = "expression") -> Expr:
    """The tree of expr, parsed if it is text; ValueError if it has a variable outside names."""
    node = parse(expr) if isinstance(expr, str) else expr
    extra = free_vars(node) - set(names)
    if extra:
        raise ValueError(f"{what} has free variables besides {', '.join(names)}: {sorted(extra)}")
    return node


# ---------------------------------------------------------------------------
# tree walks
#
# Every pass over a tree but parse and repr is a loop over _postorder(node)
# that fills a dict keyed by the id of each node (unparse uses it to find the
# shared nodes, then writes the text from a stack; repr writes from a stack
# alone).  So a subtree shared by identity, as diff builds them, is visited
# once, and a tree of any depth is walked without recursion.


def _kids(nd: Expr) -> tuple:
    cls = type(nd)
    if cls is BinOp:
        return (nd.left, nd.right)
    return (nd.arg,) if cls is Neg or cls is Call else ()


# the latest tree walked and its list, so that passes over one tree in a row
# (free_vars, then compile_expr, of a density) walk it once; a tree is
# immutable, the tuple is replaced whole, and no caller passes its first root
_last_walk: tuple = (object(), [])


def _postorder(node: Expr, follow: Callable[[Expr], tuple] | None = None) -> list[Expr]:
    """The distinct nodes (by id) that node reaches, each after its children, a left child's before a right child's.

    That is the order in which a recursive walk that skips the nodes it has
    seen finishes them.  With follow, the walk goes only into the children
    follow(nd) gives, as a pass that reads only those would recurse.  An
    explicit stack of (node, whether its children are done) pairs; TypeError
    at anything that is not a node.  The list of a whole walk is shared with
    the next whole walk of the same node: read it, do not change it.
    """
    global _last_walk
    root, order = _last_walk
    if root is node and follow is None:
        return order
    order = []
    seen: set[int] = set()  # ids of the nodes pushed with their children
    stack = [(node, False)]
    pop, push = stack.pop, stack.append
    while stack:
        nd, done = pop()
        if done:
            order.append(nd)
            continue
        if id(nd) in seen:
            continue
        seen.add(id(nd))
        cls = type(nd)
        if follow is not None:
            kids = follow(nd)
            if kids:
                push((nd, True))
                for kid in reversed(kids):
                    push((kid, False))
            else:
                order.append(nd)
        elif cls is BinOp:
            push((nd, True)), push((nd.right, False)), push((nd.left, False))
        elif cls is Neg or cls is Call:
            push((nd, True)), push((nd.arg, False))
        elif cls is Num or cls is Var:
            order.append(nd)
        else:
            raise TypeError(f"not an expression node: {nd!r}")
    if follow is None:
        _last_walk = (node, order)
    return order


def _holds(node: Expr, var: str) -> dict[int, bool]:
    """Whether var occurs in each node of node, by id."""
    holds: dict[int, bool] = {}
    for nd in _postorder(node):
        cls = type(nd)
        if cls is BinOp:
            holds[id(nd)] = holds[id(nd.left)] or holds[id(nd.right)]
        elif cls is Neg or cls is Call:
            holds[id(nd)] = holds[id(nd.arg)]
        else:
            holds[id(nd)] = cls is Var and nd.name == var
    return holds


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
    """The text of node, with parentheses only where precedence needs them.

    Written left to right from an explicit stack of nodes and pieces of text.
    A subtree that is a child more than once has its text joined once and
    reused, so the cost follows the length of the text.
    """
    seen: set[int] = set()
    shared: set[int] = set()  # ids of the nodes that are a child more than once
    for nd in _postorder(node):
        for kid in _kids(nd):
            (shared if id(kid) in seen else seen).add(id(kid))
    texts: dict[int, str] = {}  # id of a shared node -> its text
    parts: list[str] = []
    stack: list = [node]
    while stack:
        nd = stack.pop()
        cls = type(nd)
        if cls is str:
            parts.append(nd)
            continue
        if cls is tuple:  # a shared node, whose text starts at parts[start], is written
            nd, start = nd
            text = texts[id(nd)] = "".join(parts[start:])
            parts[start:] = [text]
            continue
        if id(nd) in texts:
            parts.append(texts[id(nd)])
            continue
        if id(nd) in shared:
            stack.append((nd, len(parts)))
        if cls is Num:
            parts.append(repr(nd.value))
        elif cls is Var:
            parts.append(nd.name)
        elif cls is Neg:
            parts.append("-")
            stack += (")", nd.arg, "(") if _prec(nd.arg) < _PREC["neg"] else (nd.arg,)
        elif cls is Call:
            parts.append(f"{nd.func}(")
            stack += (")", nd.arg)
        elif cls is BinOp and nd.op in _BINOPS:
            p, left, right = _PREC[nd.op], _prec(nd.left), _prec(nd.right)
            # '^' is right-associative, the others left-associative
            wrap_left, wrap_right = (left <= p, right < p) if nd.op == "^" else (left < p, right <= p)
            stack += (")", nd.right, "(") if wrap_right else (nd.right,)
            stack.append(nd.op)
            stack += (")", nd.left, "(") if wrap_left else (nd.left,)
        else:
            raise TypeError(f"not an expression node: {nd!r}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# evaluation


def free_vars(node: Expr) -> frozenset[str]:
    """The variable names in node."""
    return frozenset([nd.name for nd in _postorder(node) if type(nd) is Var])


def vanishes(node: Expr) -> bool:
    """Whether node is 0 by its structure: a zero literal, or built from one.

    That is a product with such a factor, a quotient with such a numerator, a
    power of one to a positive literal exponent, or a negation, sum or
    difference of such nodes; a function call never is.
    """
    zero: dict[int, bool] = {}  # id of each node -> whether it vanishes
    for nd in _postorder(node):
        cls = type(nd)
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
    try:
        return a**c
    except OverflowError:  # past the float range, as for a product: negative only for a < 0 and c odd
        return -math.inf if a < 0.0 and c % 2.0 == 1.0 else math.inf


# the largest argument whose exp is finite
_EXP_MAX = math.log(sys.float_info.max)


def _exp(a: float) -> float:
    # past the float range, as for a product; compile_expr inlines the same test
    return math.inf if a > _EXP_MAX else math.exp(a)


def _log(a: float) -> float:
    if a <= 0.0:
        raise EvalError(f"log of non-positive value {a}")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise EvalError(f"sqrt of negative value {a}")
    return math.sqrt(a)


def _overflow(func: str, a: float):
    raise EvalError(f"{func} of {a}, an overflow: no value past the float range")


def _sin(a: float) -> float:
    return _overflow("sin", a) if math.isinf(a) else math.sin(a)


def _cos(a: float) -> float:
    return _overflow("cos", a) if math.isinf(a) else math.cos(a)


def _step(a: float) -> float:
    return 1.0 if a >= 0.0 else 0.0


_CALLS = {"exp": _exp, "log": _log, "sin": _sin, "cos": _cos, "sqrt": _sqrt, "step": _step}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}
_EMIT = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_divide({}, {})", "^": "_power({}, {})"}
# the names an emitted function finds in its globals, besides its constants;
# exp, sin and cos are emitted as the range tests of _exp, _sin and _cos
# inline (1e999 is the literal of inf), which saves the frame of a wrapper
_ENV = {f"_{name}": fn for name, fn in _CALLS.items()}
_ENV.update(_unbound=_unbound, _divide=_divide, _power=_power, _overflow=_overflow)
_ENV.update(_exp=math.exp, _sin=math.sin, _cos=math.cos)
_EMIT_CALL = {name: f"_{name}({{0}})" for name in _CALLS}
_EMIT_CALL["exp"] = f"1e999 if {{0}} > {_EXP_MAX!r} else _exp({{0}})"
_EMIT_CALL.update({f: f"_{f}({{0}}) if -1e999 != {{0}} != 1e999 else _overflow({f!r}, {{0}})" for f in ("sin", "cos")})


def evaluate(node: Expr, bindings: Bindings | None = None) -> float:
    """Walk the tree at one point: the reference that compile_expr must match.

    Like compile_expr, it computes a subtree shared by identity once.
    """
    b = bindings or {}
    value: dict[int, float] = {}  # id of each node -> its value
    for nd in _postorder(node):
        cls = type(nd)
        if cls is Num:
            v = nd.value
        elif cls is Var:
            v = float(b[nd.name]) if nd.name in b else _unbound(nd.name)
        elif cls is Neg:
            v = -value[id(nd.arg)]
        elif cls is Call:
            if nd.func not in _CALLS:
                raise EvalError(f"unknown function {nd.func!r}")
            v = _CALLS[nd.func](value[id(nd.arg)])
        elif nd.op in _BINOPS:
            v = _BINOPS[nd.op](value[id(nd.left)], value[id(nd.right)])
        else:
            raise TypeError(f"not an expression node: {nd!r}")
        value[id(nd)] = v
    return value[id(node)]


# Distinct sources per benchmark pass (seed 901): at most 20 (41 in the first
# spec-mix pass, selftest included), the longest 838 characters.
_CODE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(src: str):
    """The code object of an emitted source, compiled once per distinct source."""
    return compile(src, "<compile_expr>", "exec")


def compile_expr(node: Expr, params: Sequence[str]) -> Callable[..., float]:
    """Compile node once into a straight-line function of the positional params.

    The emitted function keeps one temporary per distinct node (by identity),
    in the order of _postorder, so a subtree that diff shares is computed
    once per call.  Constants are passed by reference, not written into the
    source, and '/', '^', log and sqrt go through the checked primitives that
    evaluate uses; exp, sin and cos are emitted as their range tests, inline.  The function
    returns what evaluate returns at the same bindings and raises where
    evaluate raises, at the same node: a name outside params raises
    EvalError when the function is called, not here.
    A call of an unknown function (which parse never builds) is rejected here.

    The source therefore depends only on the shape of node: its operators,
    its sharing, its variable names and params.  Its code object is shared
    by shape through a least-recently-used cache of _CODE_CACHE_SIZE sources;
    each call still runs that code in a fresh namespace, so every function
    binds its own constants.  The cache holds no constant and no function,
    only source strings and their code objects, about 3 bytes per source
    character together.
    """
    env = _ENV.copy()
    args = {name: f"a{i}" for i, name in enumerate(params)}
    lines: list[str] = []
    # id of each visited node, and each variable name, -> its name in the emitted code
    operand: dict = {}
    for nd in _postorder(node):
        cls = type(nd)
        if cls is Num:  # by reference: inf and nan have no literal
            operand[id(nd)] = name = f"k{len(env)}"
            env[name] = nd.value
            continue
        if cls is Var:
            name = nd.name
            if name in operand:  # one temporary per variable name
                operand[id(nd)] = operand[name]
                continue
            rhs = f"float({args[name]})" if name in args else f"_unbound({name!r})"
        elif cls is Neg:
            rhs = f"-{operand[id(nd.arg)]}"
        elif cls is Call:
            if nd.func not in _CALLS:
                raise EvalError(f"unknown function {nd.func!r}")
            rhs = _EMIT_CALL[nd.func].format(operand[id(nd.arg)])
        elif nd.op in _EMIT:
            rhs = _EMIT[nd.op].format(operand[id(nd.left)], operand[id(nd.right)])
        else:
            raise TypeError(f"not an expression node: {nd!r}")
        operand[id(nd)] = temp = f"t{len(lines)}"
        if cls is Var:
            operand[name] = temp
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
    out: dict[int, Expr] = {}  # id of each node of node -> its substituted copy
    for nd in _postorder(node):
        cls = type(nd)
        if cls is Num:
            r = nd
        elif cls is Var:
            r = replacement if nd.name == var else nd
        elif cls is Neg:
            r = Neg(out[id(nd.arg)])
        elif cls is Call:
            r = Call(nd.func, out[id(nd.arg)])
        else:
            r = BinOp(nd.op, out[id(nd.left)], out[id(nd.right)])
        out[id(nd)] = r
    return out[id(node)]


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


def _diff_rule(nd: BinOp | Call, du: Expr, dv: Expr | None, var: str, first: bool = True) -> Expr:
    """The derivative of nd from those of its operands: the sum, product, quotient or chain rule.

    For a call, du is the derivative of its argument, which holds var.  A quotient u/v
    takes (u'v - uv')/v^2 at the first order, past it (u' - (u/v)v')/v, which squares no v.
    """
    if type(nd) is Call:
        if nd.func == "exp":
            return _mul(nd, du)
        if nd.func == "log":
            return _div(du, nd.arg)
        if nd.func == "sin":
            return _mul(Call("cos", nd.arg), du)
        if nd.func == "cos":
            return _neg(_mul(Call("sin", nd.arg), du))
        if nd.func == "sqrt":
            return _div(du, _mul(Num(2.0), nd))
        if nd.func == "step":
            raise DiffError(
                f"cannot differentiate step() w.r.t. {var!r}: "
                "piecewise-constant subtree depends on the variable"
            )
        raise DiffError(f"unknown function {nd.func!r}")
    if nd.op == "+":
        return _add(du, dv)
    if nd.op == "-":
        return _sub(du, dv)
    if nd.op == "*":
        return _add(_mul(du, nd.right), _mul(nd.left, dv))
    if first:
        return _div(_sub(_mul(du, nd.right), _mul(nd.left, dv)), BinOp("^", nd.right, Num(2.0)))
    return _div(_sub(du, _mul(nd, dv)), nd.right)


def _merge(node: Expr, shapes: dict) -> Expr:
    """node with each subtree replaced by the first node of its shape in shapes, which gains the new shapes.

    A shape is as in _shape_number, but numbers are keyed by their bits: Num(0.0) is not Num(-0.0).
    """
    out: dict[int, Expr] = {}  # id of each node of node -> the node of its shape
    for nd in _postorder(node):
        cls = type(nd)
        if cls is BinOp:
            left, right = out[id(nd.left)], out[id(nd.right)]
            shape, same = (nd.op, id(left), id(right)), left is nd.left and right is nd.right
        elif cls is Neg or cls is Call:
            arg = out[id(nd.arg)]
            shape, same = (nd.func if cls is Call else "-", id(arg)), arg is nd.arg
        else:
            shape, same = (cls, float(nd.value).hex() if cls is Num else nd.name), True
        m = shapes.get(shape)
        if m is None:
            m = shapes[shape] = nd if same else (
                BinOp(nd.op, left, right) if cls is BinOp else Call(nd.func, arg) if cls is Call else Neg(arg))
        out[id(nd)] = m
    return out[id(node)]


def diff(node: Expr, var: str, n: int = 1) -> Expr:
    """The n-th derivative of node in var (node for n = 0), built rule by rule from those of its operands.

    A subtree shared by identity is differentiated once, and its derivative
    is shared too.  Neither the argument of a call free of var nor the
    exponent of '^' is differentiated: the first call gives 0, the second
    is evaluated.  For n > 1, equal subtrees are merged after each order, and a
    node keeps the derivative it got at a lower order, which later orders share.
    """
    shapes: dict = {}  # shape -> its one node; with node, it keeps every key of d alive
    d: dict[int, Expr] = {}  # id of each node differentiated at any order -> its derivative
    root = node
    for order in range(n):
        holds = _holds(root, var)

        def operands(nd: Expr) -> tuple:  # the nodes whose derivatives the rule of nd reads
            if id(nd) in d:
                return ()
            if type(nd) is BinOp and nd.op == "^":
                return (nd.left,)
            return () if type(nd) is Call and not holds[id(nd.arg)] else _kids(nd)

        for nd in _postorder(root, operands):
            if id(nd) in d:
                continue
            cls = type(nd)
            if cls is Num:
                out = Num(0.0)
            elif cls is Var:
                out = Num(1.0) if nd.name == var else Num(0.0)
            elif cls is Neg:
                out = _neg(d[id(nd.arg)])
            elif cls is Call:
                out = _diff_rule(nd, d[id(nd.arg)], None, var) if holds[id(nd.arg)] else Num(0.0)
            elif nd.op == "^":
                # the exponent is constant by the parser's invariant
                if holds[id(nd.right)]:
                    raise DiffError("'^' exponent depends on the differentiation variable")
                c = evaluate(nd.right)
                out = _mul(_mul(Num(c), BinOp("^", nd.left, Num(c - 1.0))), d[id(nd.left)])
            elif nd.op in _BINOPS:
                out = _diff_rule(nd, d[id(nd.left)], d[id(nd.right)], var, order == 0)
            else:
                raise TypeError(f"not an expression node: {nd!r}")
            d[id(nd)] = out
        root = _merge(d[id(root)], shapes) if n > 1 else d[id(root)]
    return root


def taylor(node: Expr, var: str, at: float, n: int, bindings: Bindings | None = None) -> list[float]:
    """Taylor coefficients c_0..c_n of node in var at var = at; c_k = (k-th derivative)/k!.

    Truncated series are pushed through the tree by the recurrences of Griewank
    and Walther, Evaluating Derivatives (2008), ch. 13, at O(n^2) per node.
    A subtree free of var is evaluated once, as a constant series.
    Raises EvalError where evaluate would and DiffError where diff would; a
    power of a series that vanishes at the point has coefficients only below
    its exponent, unless that is a non-negative integer, and a power or log
    whose value or argument overflows none past it.  Sums skip products with a zero factor, so
    0 * inf, a NaN, never forms, and every finite sum keeps its bits.
    """
    b = {**(bindings or {}), var: at}
    ks = range(1, n + 1)

    def conv(u, v, k, first=0):  # sum_{j=first..k} u_j v_{k-j}
        return sum((u[j] * v[k - j] for j in range(first, k + 1) if u[j] and v[k - j]), 0.0)

    def mul(u, v):
        return [conv(u, v, k) for k in range(n + 1)]

    def dot(u, v, k):  # (1/k) sum_j j u_j v_{k-j}, the chain rule on series
        return sum((j * u[j] * v[k - j] for j in ks[:k] if u[j] and v[k - j]), 0.0) / k

    def power(u, c):
        v = [_power(u[0], c) if u[0] else 1.0] + [0.0] * n
        if n and math.isinf(v[0]):
            raise EvalError(f"{u[0]} raised to {c} overflows: no Taylor coefficients past its value")
        if u[0]:
            for k in ks:
                v[k] = ((c + 1.0) * dot(u, v, k) - conv(u, v, k, 1)) / u[0]
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
            w[k] = (u[k] - conv(v, w, k, 1)) / v[0]
        return w

    def expand(nd: Expr) -> list[float]:  # the series of nd from those of its operands in jets
        if not holds[id(nd)]:
            return [evaluate(nd, b)] + [0.0] * n
        if isinstance(nd, Var):
            return [at, 1.0, *[0.0] * n][: n + 1]
        if isinstance(nd, Neg):
            return [-c for c in jets[id(nd.arg)]]
        if isinstance(nd, Call) and nd.func == "step":
            if n:
                raise DiffError(f"cannot differentiate step() w.r.t. {var!r}")
            return [evaluate(nd, b)]
        if isinstance(nd, Call):
            u, v = jets[id(nd.arg)], [0.0] * (n + 1)
            if nd.func == "sqrt":
                return power(u, 0.5)
            if nd.func == "exp":
                v[0] = _exp(u[0])
                for k in ks:
                    v[k] = dot(u, v, k)
                return v
            if nd.func == "log":
                if n and math.isinf(u[0]):
                    raise EvalError(f"log of {u[0]}, an overflow: no Taylor coefficients past its value")
                v[0] = _log(u[0])
                for k in ks:
                    v[k] = (u[k] - dot(v, u, k)) / u[0]
                return v
            if nd.func not in ("sin", "cos"):
                raise EvalError(f"unknown function {nd.func!r}")
            if math.isinf(u[0]):
                _overflow(nd.func, u[0])
            s, c = [math.sin(u[0])] + v[1:], [math.cos(u[0])] + v[1:]
            for k in ks:
                s[k], c[k] = dot(u, c, k), -dot(u, s, k)
            return s if nd.func == "sin" else c
        u, v = jets[id(nd.left)], jets[id(nd.right)]
        if nd.op != "^":
            return chain(nd, u, v)
        if n and holds[id(nd.right)]:
            raise DiffError("'^' exponent depends on the differentiation variable")
        return power(u, v[0])

    holds = _holds(node, var)

    def operands(nd: Expr) -> tuple:  # the nodes whose series expand(nd) reads
        # a subtree free of var is one constant, and a step of var is 0 or 1 whatever its argument's series
        return _kids(nd) if holds[id(nd)] and not (type(nd) is Call and nd.func == "step") else ()

    jets: dict[int, list[float]] = {}  # id of each node reached -> its series
    for nd in _postorder(node, operands):
        jets[id(nd)] = expand(nd)
    return jets[id(node)]


def central_fd(node: Expr, var: str, bindings: Bindings) -> float:
    """Richardson-extrapolated central finite difference, steps 1e-4 and 5e-5, for checking diff."""

    def d(step: float) -> float:
        up = dict(bindings)
        dn = dict(bindings)
        up[var] = bindings[var] + step
        dn[var] = bindings[var] - step
        return (evaluate(node, up) - evaluate(node, dn)) / (2.0 * step)

    d1, d2 = d(1e-4), d(5e-5)
    return (4.0 * d2 - d1) / 3.0
