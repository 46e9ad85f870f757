"""Tape-based reverse-mode automatic differentiation over numpy arrays.

A `Tape` records every operation applied to `Node` values during a forward
pass; `gradient`, the one reverse-mode entry point, replays the tape in
reverse creation order (which is a topological order by construction),
accumulates adjoints and frees each interior adjoint as soon as its VJPs
have run. Losses here are always scalar while parameter counts are large,
so reverse mode gives the whole gradient in one backward sweep.

All module-level math functions (`exp`, `matmul`, `where`, ...) dispatch on
their argument type: `Node` inputs are recorded on the tape, plain arrays
fall through to numpy. Code written against these functions therefore runs
identically with and without gradient tracking.

Every primitive records through `_op`, one (operand, VJP) pair per `Node`
operand; the many-operand primitives (`einsum`, `stack`, `concat`) build a
VJP only for their `Node` operands, so an untaped call builds none.
Operands broadcast as numpy broadcasts them; the sweep sums each VJP result
back over the broadcast axes to its operand's shape, for every primitive
alike. There is no general tensor-shape algebra beyond that.
"""

from __future__ import annotations

import functools

import numpy as np


class DomainError(ValueError):
    """Input outside a primitive's mathematical domain (log/sqrt/division)."""


class Tape:
    """Ordered store of recorded nodes for one forward computation.

    Single-writer during recording; independent tapes may be built and
    differentiated concurrently since there is no shared global state.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def variable(self, value) -> "Node":
        """Declare a differentiable input (leaf node)."""
        return self._record(np.asarray(value, dtype=np.float64), ())

    def _record(self, value, parents) -> "Node":
        node = Node(self, len(self.nodes), value, parents)
        self.nodes.append(node)
        return node


class Node:
    """One recorded value: result and links to parents.

    `parents` holds (parent node, vjp) pairs where vjp maps this node's
    adjoint to the parent's adjoint contribution — the local partial
    derivative in operator form.
    """

    __slots__ = ("tape", "index", "value", "parents")
    __array_ufunc__ = None  # keep numpy from absorbing Node operands

    def __init__(self, tape, index, value, parents):
        self.tape = tape
        self.index = index
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Node(#{self.index}, shape={self.value.shape})"

    # arithmetic operators; right-variants handle ndarray-or-scalar left sides
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return getitem(self, key)


def value_of(x) -> np.ndarray:
    """Underlying numpy value of a Node or array-like."""
    if isinstance(x, Node):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _tape_of(*args) -> Tape | None:
    tape = None
    for a in args:
        if isinstance(a, Node):
            if tape is None:
                tape = a.tape
            elif tape is not a.tape:
                raise ValueError("cannot combine nodes from different tapes")
    return tape


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` back down to `shape` after numpy broadcasting. A `grad`
    already of that shape is returned as it is, not as a view: numpy adds
    into a temporary that owns its data instead of allocating the sum."""
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _op(out, *pairs):
    """Record `out` with one (operand, vjp) pair per `Node` operand, where
    vjp maps `out`'s adjoint to that operand's contribution at the
    broadcast shape; with no `Node` operand `out` is returned as it is.
    Any work a VJP needs belongs inside it, so an untaped call does none of it."""
    parents = tuple([pair for pair in pairs if isinstance(pair[0], Node)])
    if not parents:
        return out
    return _tape_of(*[x for x, _ in parents])._record(out, parents)


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    return _op(value_of(a) + value_of(b), (a, lambda g: g), (b, lambda g: g))


def sub(a, b):
    return _op(value_of(a) - value_of(b), (a, lambda g: g), (b, lambda g: -g))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    return _op(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def div(a, b):
    av, bv = value_of(a), value_of(b)
    if np.any(bv == 0.0):
        raise DomainError("division by zero")
    return _op(av / bv, (a, lambda g: g / bv), (b, lambda g: -g * av / (bv * bv)))


def neg(x):
    return _op(-value_of(x), (x, lambda g: -g))


def exp(x):
    out = np.exp(value_of(x))
    return _op(out, (x, lambda g: g * out))


def log(x):
    xv = value_of(x)
    if np.any(xv <= 0.0):
        raise DomainError("log of non-positive input")
    return _op(np.log(xv), (x, lambda g: g / xv))


def sqrt(x):
    xv = value_of(x)
    if np.any(xv <= 0.0):
        raise DomainError("sqrt of non-positive input")
    out = np.sqrt(xv)
    return _op(out, (x, lambda g: g * 0.5 / out))


def sin(x):
    xv = value_of(x)
    return _op(np.sin(xv), (x, lambda g: g * np.cos(xv)))


def cos(x):
    xv = value_of(x)
    return _op(np.cos(xv), (x, lambda g: -g * np.sin(xv)))


def square(x):
    xv = value_of(x)
    return _op(xv * xv, (x, lambda g: g * 2.0 * xv))


def clamp(x, lo=None, hi=None):
    """Clip to [lo, hi]; subgradient is 0 at and beyond the boundaries."""
    xv = value_of(x)
    out = np.clip(xv, lo, hi)
    inside = np.ones_like(xv, dtype=bool)
    if lo is not None:
        inside &= xv > lo
    if hi is not None:
        inside &= xv < hi
    return _op(out, (x, lambda g: g * inside))


def elu(x):
    """x above 0 and exp(x) - 1 at and below it, as one primitive. Its
    value and adjoint are those of `where(x > 0, x, exp(clamp(x, hi=0)) - 1)`
    bit for bit: the adjoint g * (e where x < 0, 1 where x > 0, 0 at x = 0),
    with e = exp(x), is the sum of the composition's two routes to x, one
    of which is always a zero of g's sign."""
    xv = value_of(x)
    e = np.exp(np.clip(xv, None, 0.0))
    return _op(np.where(xv > 0, xv, e - 1.0), (x, lambda g: g * np.where(xv < 0, e, xv > 0)))


def where(cond, a, b):
    """Select elementwise by a boolean array; `cond` is data, not differentiated."""
    cond = np.asarray(cond, dtype=bool)
    out = np.where(cond, value_of(a), value_of(b))
    return _op(out, (a, lambda g: g * cond), (b, lambda g: g * ~cond))


# ---------------------------------------------------------------------------
# tensor primitives
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product; operands must have ndim >= 2 (batch dims broadcast)."""
    av, bv = value_of(a), value_of(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    return _op(av @ bv, (a, lambda g: g @ np.swapaxes(bv, -1, -2)),
               (b, lambda g: np.swapaxes(av, -1, -2) @ g))


def sum_(x):
    """Sum of every element."""
    xv = value_of(x)
    return _op(xv.sum(), (x, lambda g: np.broadcast_to(g, xv.shape).copy()))


def reshape(x, shape):
    xv = value_of(x)
    return _op(xv.reshape(shape), (x, lambda g: g.reshape(xv.shape)))


def transpose(x, axes):
    """Axes permuted as by `np.transpose`, into a C-ordered array."""
    xv = value_of(x)
    inverse = np.argsort(axes)
    return _op(np.ascontiguousarray(xv.transpose(axes)),
               (x, lambda g: np.ascontiguousarray(g.transpose(inverse))))


def getitem(x, key):
    """Basic indexing (integers, slices, None, Ellipsis); adjoints add back
    into the indexed region. Gathers by an index array go through `take`."""
    keys = key if isinstance(key, tuple) else (key,)
    if any(isinstance(k, (np.ndarray, list)) for k in keys):
        raise ValueError("array keys are not supported; gather with take()")
    xv = value_of(x)

    def vjp(g):
        grad = np.zeros_like(xv)
        grad[key] += g
        return grad

    return _op(xv[key], (x, vjp))


def take(x, indices, axis):
    """Gather along `axis` by an integer index array of any shape, as
    `np.take`: the result is C-ordered, with the index array's shape in place
    of that axis. Adjoints scatter-add back, so repeated indices sum."""
    xv = value_of(x)
    indices = np.asarray(indices)
    axis = axis % xv.ndim
    out = np.take(xv, indices, axis=axis)

    def vjp(g):
        # flat position in x of every adjoint element, summed by bincount in
        # element order (as np.add.at would, at a fraction of its cost): the
        # start of each leading row plus the offsets within one row
        n = xv.shape[axis]
        trail = int(np.prod(xv.shape[axis + 1:]))
        inner = (indices % n).ravel()
        if trail > 1:
            inner = (inner[:, None] * trail + np.arange(trail)).ravel()
        lead = np.arange(int(np.prod(xv.shape[:axis]))) * (n * trail)
        pos = lead[:, None] + inner
        return np.bincount(pos.ravel(), weights=np.ravel(g), minlength=xv.size).reshape(xv.shape)

    return _op(out, (x, vjp))


@functools.lru_cache(maxsize=256)
def _einsum_terms(subscripts: str, shapes: tuple) -> tuple:
    """Split "ab,bc->ac" into (("ab", "bc"), "ac"), rejecting the forms whose
    adjoints are not einsums of the output adjoint and the other operands.
    Cached by the subscripts and the operand shapes, which are all it
    reads; a rejection is not cached, so it raises on every call."""
    if "->" not in subscripts or "." in subscripts:
        raise ValueError(f"einsum needs explicit output subscripts and no ellipsis: {subscripts!r}")
    lhs, output = subscripts.replace(" ", "").split("->")
    inputs = tuple(lhs.split(","))
    if len(inputs) != len(shapes):
        raise ValueError(f"{subscripts!r} names {len(inputs)} operands, got {len(shapes)}")
    for term in inputs + (output,):
        if len(set(term)) != len(term):
            raise ValueError(f"repeated subscript in {term!r}: diagonals are not supported")
    sizes = {}
    for i, (term, shape) in enumerate(zip(inputs, shapes)):
        others = output + "".join(t for k, t in enumerate(inputs) if k != i)
        if not set(term) <= set(others):
            raise ValueError(f"{term!r} sums a subscript within one operand; use sum_")
        for label, n in zip(term, shape):
            if sizes.setdefault(label, n) != n:
                raise ValueError(f"subscript {label!r} has sizes {sizes[label]} and {n}")
    return inputs, output


def einsum(subscripts: str, *operands):
    """Einstein summation with explicit output subscripts ("bij,bjk->bik").

    Each operand's adjoint is the einsum of the output adjoint with the other
    operands, written to that operand's subscripts, as in autograd and JAX.
    Raises ValueError for an ellipsis, a subscript repeated within one term,
    a subscript summed inside a single operand, or one subscript with two
    sizes (no broadcasting).
    """
    values = [value_of(op) for op in operands]
    inputs, output = _einsum_terms(subscripts, tuple(v.shape for v in values))
    # no optimize=: on these small contractions the planned path is slower
    # and may return a non-contiguous view
    out = np.einsum(subscripts, *values)

    def vjp(i):
        def vjp_i(g):
            spec = ",".join((output,) + inputs[:i] + inputs[i + 1:]) + "->" + inputs[i]
            return np.einsum(spec, g, *values[:i], *values[i + 1:])
        return vjp_i

    return _op(out, *[(op, vjp(i)) for i, op in enumerate(operands) if isinstance(op, Node)])


def stack(items, axis=0):
    out = np.stack([value_of(it) for it in items], axis=axis)
    return _op(out, *[(it, lambda g, i=i: np.take(g, i, axis=axis))
                      for i, it in enumerate(items) if isinstance(it, Node)])


def concat(items, axis=0):
    values = [value_of(it) for it in items]
    out = np.concatenate(values, axis=axis)

    def vjp(i):
        def vjp_i(g):
            lo = sum(v.shape[axis] for v in values[:i])
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, lo + values[i].shape[axis])
            return g[tuple(index)]
        return vjp_i

    return _op(out, *[(it, vjp(i)) for i, it in enumerate(items) if isinstance(it, Node)])


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------

def gradient(root: Node, inputs) -> list[np.ndarray]:
    """d(root)/d(input) for each of `inputs`, from one reverse sweep of the
    scalar `root`'s tape; an input the root does not reach gets zeros.

    The tape's creation order is a topological order, so the sweep visits
    each node once, after every node that uses it. A node's adjoint is
    dropped once its VJPs have run, unless the node is one of `inputs`, so
    the sweep holds only the adjoints still waiting for their VJPs.
    Accumulation is out of place, so VJP results are never written into;
    each returned array is a copy the caller owns.
    """
    if not isinstance(root, Node):
        raise TypeError("gradient root must be a Node")
    if root.value.size != 1:
        raise ValueError("gradient root must be scalar")
    inputs = list(inputs)
    _tape_of(root, *inputs)  # an input from another tape would alias an index
    keep = {node.index for node in inputs}
    adjoints = [None] * (root.index + 1)
    adjoints[root.index] = np.ones_like(root.value)
    for node in reversed(root.tape.nodes[: root.index + 1]):
        adjoint = adjoints[node.index]
        if adjoint is None:
            continue
        if node.index not in keep:
            adjoints[node.index] = None
        for parent, vjp in node.parents:
            # the one place broadcasting is summed away; no local keeps a
            # VJP result or a replaced adjoint alive past the add
            i, shape = parent.index, parent.value.shape
            if adjoints[i] is None:
                adjoints[i] = _unbroadcast(vjp(adjoint), shape)
            else:
                adjoints[i] = adjoints[i] + _unbroadcast(vjp(adjoint), shape)
    return [np.zeros_like(node.value) if adjoints[node.index] is None
            else np.array(adjoints[node.index], dtype=np.float64)
            for node in inputs]
