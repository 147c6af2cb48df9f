"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of a core drifts by up to a factor of two within
a minute, far more than the changes the benchmark must resolve.  The loop
therefore times this kernel between operations, and each operation's time is
also reported in calibrated seconds: its wall time scaled by how much slower
or faster than ``KERNEL_REF_S`` the nearby kernel runs were.

The kernel does what asympush's hot loops do in pure Python (a tree walk with
isinstance dispatch over small frozen dataclasses, dict bindings, calls into
``math``), but shares no code with the package, so a change to the package
cannot move it.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

# The kernel's duration on the machine the benchmark was defined on (2 vCPUs
# at 2.1 GHz, Python 3.11), near its median; one calibrated second is the
# time in which that machine runs 1 / KERNEL_REF_S kernels.
KERNEL_REF_S = 0.002
POINTS = 400


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Call:
    func: str
    arg: object


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


def _eval(node, b):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return b[node.name]
    if isinstance(node, _Call):
        x = _eval(node.arg, b)
        return math.exp(x) if node.func == "exp" else math.sqrt(x)
    lhs, rhs = _eval(node.left, b), _eval(node.right, b)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    return lhs / rhs


# exp(-0.7*x-1.3*y)*(1+x*y)/sqrt(1+x+y)
_TREE = _Bin(
    "/",
    _Bin(
        "*",
        _Call("exp", _Bin("-", _Bin("*", _Num(-0.7), _Var("x")), _Bin("*", _Num(1.3), _Var("y")))),
        _Bin("+", _Num(1.0), _Bin("*", _Var("x"), _Var("y"))),
    ),
    _Call("sqrt", _Bin("+", _Num(1.0), _Bin("+", _Var("x"), _Var("y")))),
)


def kernel_seconds() -> float:
    """Wall time of one kernel run: the tree evaluated at POINTS points.

    The collector is off while it runs (the kernel makes no cycles), so the
    number of objects the program keeps alive cannot change its time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(POINTS):
            acc += _eval(_TREE, {"x": i / POINTS, "y": 1.0 - i / POINTS})
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite sum")
    return elapsed
