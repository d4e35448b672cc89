"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation returns a new Tensor that
records its parents and a vector-Jacobian-product closure. Calling
``backward`` on a scalar walks the recorded graph in reverse topological
order and accumulates gradients additively on every requires-grad leaf, so
backward calls on different graphs sum their contributions. Each graph is
walked once: the walk releases each node it is done with, and a second
walk through it is a ContractError. :func:`backward_seeded` walks from
several roots at once, each seeded with a given gradient; a node's backward
may use it to walk a graph of its own, as a split forward's outputs do to
walk the forward's shares.

The ops are the ones the detector and its losses use: elementwise ops of
equal shapes, products (``matmul_add`` and ``mlp`` add a bias row), sums,
nonlinearities (``log_floor``, a log floored at :data:`LOG_FLOOR`), row layout
(``interleave_rows``, ``gather_rows``), softmax, layer norm and attention;
the channel norm is an array function whose vjp the loss op calls.

Tensors are immutable values apart from gradient accumulation. A graph is
used by one thread at a time; disjoint graphs may be built and walked in
parallel, and a graph built on one thread may be walked on another.

:func:`run_shares` runs independent pieces of work on the share pool, the
process's one thread pool: a forward's image shares and their backward
walks (``detector.forward_batch``), and the layers of ``amalgamation.sa_loss``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, ShapeError

LOG_FLOOR = 1e-12  # floor applied before every log (KL, cross-entropy)


class Tensor:
    """A float64 array plus optional participation in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """See :func:`backward`; the graph below this tensor is walked once."""
        backward(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{tag})"


def _from_op(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _topo_order(*roots: Tensor) -> list[Tensor]:
    # Iterative DFS: batched training graphs can exceed the recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede children


def _walked(g):
    raise ContractError("a second backward through a graph that a first one released")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) on every requires-grad leaf below ``loss``,
    releasing the graph as it goes (see :func:`backward_seeded`)."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward on a tensor that is not connected to the tape")
    backward_seeded([loss], [np.ones_like(loss.data)])


def backward_seeded(roots: Sequence[Tensor], seeds: Sequence[Optional[np.ndarray]]) -> None:
    """Accumulate on every requires-grad leaf below ``roots`` the gradient of
    sum_i <seeds[i], roots[i]>, in one walk: a root that lies below another
    receives its seed plus what flows down to it. A None seed adds nothing;
    a root may appear more than once, and its seeds then add up. Once a
    node's vjp has returned, the node drops its parents and closure, so a
    saved array is freed when the last node that reads it has been walked;
    the node keeps its value, and a second walk through it is a ContractError."""
    if len(roots) != len(seeds):
        raise ContractError(f"{len(roots)} roots but {len(seeds)} seeds")
    flowing: dict[int, np.ndarray] = {}
    seeded: list[Tensor] = []
    for root, seed in zip(roots, seeds):
        if seed is None:
            continue
        if seed.shape != root.shape:
            raise ShapeError(f"a seed of shape {seed.shape} for a root of shape {root.shape}")
        if not root.requires_grad:
            raise ContractError("a seeded root is not connected to the tape")
        key = id(root)
        if key in flowing:
            flowing[key] = flowing[key] + seed
        else:
            flowing[key] = seed
            seeded.append(root)
    order = _topo_order(*seeded)
    while order:
        node = order.pop()
        g = flowing.pop(id(node), None)
        if node._vjp is None:
            if g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        if g is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + pg
                else:
                    flowing[key] = pg
        node._parents, node._vjp = (), _walked


# ---------------------------------------------------------------------------
# the share pool

_max_shares: Optional[int] = None  # per-process cap, see limit_shares
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def core_count() -> int:
    """CPU cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def limit_shares(limit: int) -> None:
    """Split work into at most ``limit`` (>= 1) shares in this process.
    Processes that share the cores with siblings, such as the workers of a
    parallel ablation, set it once at start-up."""
    global _max_shares
    if limit < 1:
        raise ContractError(f"a share limit of {limit}; it must be at least 1")
    _max_shares = limit


def share_count() -> int:
    """Shares a piece of work is split into: one per usable core, at most
    the :func:`limit_shares` cap."""
    cores = core_count()
    return cores if _max_shares is None else min(cores, _max_shares)


def _share_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, share_count() - 1),
                                       thread_name_prefix="kaseq-share")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_shares(fn, shares: Sequence[tuple]) -> list:
    """``[fn(*share) for share in shares]``, the first on the calling thread
    and the others on the share pool. The caller works rather than waits:
    each thread that allocates gets its own malloc arena, which keeps freed
    memory (see ``detector._keep_freed_heap``), and a pool that ran every
    share peaked higher (``evaluate_student`` on 2 vCPUs: 80.2 against 74.1 MB)."""
    futures = [_share_pool().submit(fn, *share) for share in shares[1:]]
    try:
        results = [fn(*shares[0])]
    finally:
        wait(futures)
    return results + [future.result() for future in futures]


def _same_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # A (1, d) bias row's gradient sums the rows it was added to.
    if grad.shape == shape:
        return grad
    return grad.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "add")
    na, nb = a.requires_grad, b.requires_grad
    return _from_op(a.data + b.data, (a, b), lambda g: (g if na else None, g if nb else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "sub")
    na, nb = a.requires_grad, b.requires_grad
    return _from_op(a.data - b.data, (a, b), lambda g: (g if na else None, -g if nb else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "mul")
    na, nb = a.requires_grad, b.requires_grad
    return _from_op(a.data * b.data, (a, b),
                    lambda g: (g * b.data if na else None, g * a.data if nb else None))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _from_op(a.data * c, (a,), lambda g: (g * c,))


def _matmul_shapes(a: Tensor, b: Tensor, op: str,
                   *addends: tuple[Optional[Tensor], tuple]) -> None:
    # a b must be defined, and each addend given must have an allowed shape.
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{op} requires matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op}: inner dimensions {a.shape} x {b.shape} disagree")
    for c, shapes in addends:
        if c is not None and c.shape not in shapes:
            raise ShapeError(f"{op}: an addend of shape {c.shape}, not one of {shapes}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _matmul_shapes(a, b, "matmul")
    na, nb = a.requires_grad, b.requires_grad
    return _from_op(a.data @ b.data, (a, b),
                    lambda g: (g @ b.data.T if na else None,
                               a.data.T @ g if nb else None))


def matmul_add(a: Tensor, b: Tensor, c: Tensor) -> Tensor:
    """``a b + c``, where ``c`` is a (1, d) bias row or a residual of the
    product's shape, keeping ``a`` and ``b`` for the backward but no product.
    Byte-equal to ``matmul(a, b)`` plus the row added to each of its rows,
    and to ``add(c, matmul(a, b))`` for a residual of two or more rows (a
    sum of two NaNs takes the first one's sign). ``c`` is the first parent,
    as the residual is the composed add's first operand, so a backward walk
    meets the nodes, and sums each gradient read by several of them, in the
    same order."""
    _matmul_shapes(a, b, "matmul_add", (c, ((1, b.shape[1]), (a.shape[0], b.shape[1]))))
    out = a.data @ b.data
    if c.shape[0] == 1:
        out += c.data
    else:
        np.add(c.data, out, out=out)
    na, nb, nc = a.requires_grad, b.requires_grad, c.requires_grad
    return _from_op(out, (c, a, b),
                    lambda g: (_reduce_to(g, c.shape) if nc else None,
                               g @ b.data.T if na else None,
                               a.data.T @ g if nb else None))


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        residual: Optional[Tensor] = None) -> Tensor:
    """``relu(x w1 + b1) w2 + b2``, plus ``residual`` when given (as the
    first parent and operand, see :func:`matmul_add`), byte-equal to the
    composed ops. The hidden layer is one buffer, biased and rectified in
    place as in :func:`relu`; only it is kept for the backward, whose mask
    ``h > 0`` equals ``x w1 + b1 > 0`` for every input, NaN and -0.0 too."""
    _matmul_shapes(x, w1, "mlp", (b1, ((1, w1.shape[1]),)))
    _matmul_shapes(w1, w2, "mlp", (b2, ((1, w2.shape[1]),)),
                   (residual, ((x.shape[0], w2.shape[1]),)))
    h = x.data @ w1.data
    h += b1.data
    np.fmax(h, 0.0, out=h)
    h += 0.0
    out = h @ w2.data
    out += b2.data
    if residual is not None:
        np.add(residual.data, out, out=out)
    nx, nw1, nb1, nw2, nb2 = (t.requires_grad for t in (x, w1, b1, w2, b2))

    def vjp(g):
        gx = gw1 = gb1 = None
        if nx or nw1 or nb1:
            gpre = g @ w2.data.T
            gpre *= (h > 0)
            gx = gpre @ w1.data.T if nx else None
            gw1 = x.data.T @ gpre if nw1 else None
            gb1 = _reduce_to(gpre, b1.shape) if nb1 else None
        grads = (gx, gw1, gb1, h.T @ g if nw2 else None, _reduce_to(g, b2.shape) if nb2 else None)
        return grads if residual is None else (g,) + grads

    parents = (x, w1, b1, w2, b2) if residual is None else (residual, x, w1, b1, w2, b2)
    return _from_op(out, parents, vjp)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    if axis is None:
        return _from_op(np.asarray(a.data.sum()), (a,),
                        lambda g: (np.broadcast_to(g, a.shape).copy(),))
    out = a.data.sum(axis=axis, keepdims=True)
    return _from_op(out, (a,),
                    lambda g: (np.broadcast_to(g, a.shape).copy(),))


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a: Tensor) -> Tensor:
    """Byte-equal to ``np.where(a > 0, a, 0.0)`` in a tenth of the time: ``fmax``
    maps NaN to 0, and +0.0 turns a -0.0 into +0.0. The backward builds its
    mask from the input, bool because a float mask costs eight times more."""
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _from_op(out, (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _from_op(s, (a,), lambda g: (g * s * (1.0 - s),))


def log_floor(a: Tensor) -> Tensor:
    """``log`` of ``a`` floored at :data:`LOG_FLOOR`. ``fmax`` maps NaN to the
    floor and returns it on ties; the backward passes ``g / floored`` only
    where ``a`` is above the floor, its mask as in relu."""
    floored = np.fmax(a.data, LOG_FLOOR)
    return _from_op(np.log(floored), (a,), lambda g: (g / floored * (a.data > LOG_FLOOR),))


# ---------------------------------------------------------------------------
# structural ops


def interleave_rows(parts: Sequence[Tensor], blocks: int) -> Tensor:
    """Matrices of one shape, each ``blocks`` equal row blocks, stacked block
    by block in one copy: block j of every part in order, then block j + 1.
    The backward hands each part its rows of the gradient."""
    shape = parts[0].shape if parts else ()
    if len(shape) != 2 or blocks < 1 or shape[0] % blocks or any(p.shape != shape for p in parts):
        raise ShapeError(f"interleave_rows: {blocks} blocks of {[p.shape for p in parts]}")
    stacked = np.stack([p.data.reshape(blocks, -1, shape[1]) for p in parts], axis=1)
    layout = stacked.shape
    return _from_op(stacked.reshape(-1, shape[1]), tuple(parts),
                    lambda g: tuple(g.reshape(layout)[:, i].reshape(shape)
                                    for i in range(len(parts))))


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by index; duplicate indices scatter-add in the backward pass."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2:
        raise ShapeError("gather_rows requires a matrix")
    if idx.ndim != 1:
        raise ContractError("gather_rows indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractError("gather_rows index out of range")

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _from_op(a.data[idx].copy(), (a,), vjp)


# ---------------------------------------------------------------------------
# softmax and normalizations


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by row-max subtraction."""
    if a.data.ndim != 2:
        raise ShapeError("softmax_rows requires a matrix")
    s = _softmax_last(a.data.copy())

    def vjp(g):
        return (_softmax_vjp(s, g),)

    return _from_op(s, (a,), vjp)


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed in place in ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with learned (1, d) gain and bias. The rows are
    centered once, where ``np.var`` would center again: both it and
    ``np.mean`` sum then divide, so the results are byte-equal to theirs."""
    if x.data.ndim != 2:
        raise ShapeError("layer_norm_rows requires a matrix")
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise ShapeError("layer_norm gain/bias must be (1, d)")
    n = x.shape[1]
    z = x.data - x.data.sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt((z * z).sum(axis=1, keepdims=True) / n + eps)
    z *= inv
    out = z * gain.data
    out += bias.data

    nx, ng, nb = x.requires_grad, gain.requires_grad, bias.requires_grad

    def vjp(g):
        gx = ggain = gbias = None
        if nx:
            gx = g * gain.data
            c = (gx * z).sum(axis=1, keepdims=True) / n
            gx -= gx.sum(axis=1, keepdims=True) / n
            gx -= z * c
            gx *= inv
        if ng:
            ggain = (g * z).sum(axis=0, keepdims=True)
        if nb:
            gbias = g.sum(axis=0, keepdims=True)
        return (gx, ggain, gbias)

    return _from_op(out, (x, gain, bias), vjp)


def channel_norm_array(x: np.ndarray, eps: float = 1e-6):
    """``x`` with each column centered and divided by its std over all rows
    plus eps, so that a constant column maps to exactly zero, and the vjp
    through those batch statistics, which keeps only what it reads."""
    mu = x.mean(axis=0, keepdims=True)
    centered = x - mu
    sigma = np.sqrt((centered * centered).mean(axis=0, keepdims=True))
    denom = sigma + eps

    def vjp(g):
        n = centered.shape[0]
        gc = (g - g.mean(axis=0, keepdims=True)) / denom
        # d(sigma)/dx_j = centered_j / (n * sigma); zero for constant columns.
        safe_sigma = np.where(sigma > 0, sigma, 1.0)
        coeff = (g * centered).sum(axis=0, keepdims=True) / (n * safe_sigma * denom * denom)
        coeff = np.where(sigma > 0, coeff, 0.0)
        return gc - centered * coeff

    return centered / denom, vjp


# ---------------------------------------------------------------------------
# block attention


def block_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                    q_block: int, k_block: int) -> Tensor:
    """Attention of ``heads`` packed heads over aligned equal-size blocks.

    ``q`` and ``k`` hold the heads' projections side by side, head i in
    columns [i d_k, (i + 1) d_k). Query rows [j q_block, (j + 1) q_block)
    attend only to key rows [j k_block, (j + 1) k_block), the block-diagonal
    mask that keeps the cost linear in the number of blocks. Head i's output
    softmax(Q_i K_i^T / sqrt(d_k)) V fills columns [i d_v, (i + 1) d_v) of
    the result. The op loops over heads, so its temporaries stay one head
    wide.
    """
    if q_block <= 0 or k_block <= 0:
        raise ShapeError("block_attention: block sizes must be positive")
    if q.shape[0] % q_block or k.shape[0] % k_block:
        raise ShapeError("block_attention: rows not divisible by block size")
    nb = q.shape[0] // q_block
    if k.shape[0] // k_block != nb:
        raise ShapeError(f"block_attention: query blocks ({nb}) != "
                         f"key blocks ({k.shape[0] // k_block})")
    if v.shape[0] != k.shape[0]:
        raise ShapeError("block_attention: keys and values must have equal length")
    if q.shape[1] != k.shape[1] or heads < 1 or q.shape[1] % heads:
        raise ShapeError(f"block_attention: widths {q.shape[1]} and {k.shape[1]} "
                         f"do not split into {heads} heads")
    d_k, d_v = q.shape[1] // heads, v.shape[1]
    scale = 1.0 / np.sqrt(d_k)
    q4 = q.data.reshape(nb, q_block, heads, d_k)
    k4 = k.data.reshape(nb, k_block, heads, d_k)
    v3 = v.data.reshape(nb, k_block, d_v)
    nq, nk, nv = q.requires_grad, k.requires_grad, v.requires_grad
    weights = []  # per head, kept only for the backward pass
    out = np.empty((nb, q_block, heads, d_v))
    for i in range(heads):
        w = np.matmul(q4[:, :, i], k4[:, :, i].swapaxes(1, 2))
        w *= scale
        np.matmul(_softmax_last(w), v3, out=out[:, :, i])
        if nq or nk or nv:
            weights.append(w)

    def vjp(g):
        g4 = g.reshape(nb, q_block, heads, d_v)
        gq = np.empty(q4.shape) if nq else None
        gk = np.empty(k4.shape) if nk else None
        gv = np.zeros(v3.shape) if nv else None
        for i, w in enumerate(weights):
            if nv:
                gv += np.matmul(w.swapaxes(1, 2), g4[:, :, i])
            gs = _softmax_vjp(w, np.matmul(g4[:, :, i], v3.swapaxes(1, 2))) * scale
            if nq:
                gq[:, :, i] = np.matmul(gs, k4[:, :, i])
            if nk:
                gk[:, :, i] = np.matmul(gs.swapaxes(1, 2), q4[:, :, i])
        return tuple(None if x is None else x.reshape(t.shape)
                     for x, t in ((gq, q), (gk, k), (gv, v)))

    return _from_op(out.reshape(nb * q_block, heads * d_v), (q, k, v), vjp)
