"""Deterministic counter-based random streams for reproducible Monte Carlo.

Each walker owns an independent stream keyed by ``(seed, walker_index)``, and
every draw is a pure function of ``(stream key, draw index)``.  There is no
mutable generator state, so results are bit-identical whether walkers run one
at a time or in vectorized batches, and independent of scheduling order.  A
draw index is one integer for every stream or one integer per stream, so rows
of a batch may sit at different points of their streams.

The generator is the splitmix64 finalizer applied to a Weyl sequence, a
standard construction for counter-based streams.  All arithmetic is modulo
2**64 by design, on uint64 arrays, whose arithmetic NumPy wraps silently; the
one scalar counter, of an int draw index, is reduced in Python integers
(:func:`key_step`).

Direction angles are ``theta = 2 pi m / 2**53`` for a draw's 53-bit integer
``m``.  Their cosine and sine come from a table rotation, not from libm: the
top 12 bits of ``m`` pick one of 4096 table angles ``2 pi i / 4096`` and the
other 41 bits give the remainder ``delta = 2 pi r / 2**53 < 1.6e-3``, by which
the table entry is rotated with short series for ``sin delta`` and
``1 - cos delta``.  Against the exact angle the error is at most about
1.5 * 2**-53 (libm on the rounded ``theta`` is off by up to about 6 * 2**-53).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _distances

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 1.0 / float(1 << 53)

_TABLE_BITS = 12  # the rest of a draw's 53 bits is the rotation remainder
_REMAINDER_BITS = 53 - _TABLE_BITS
_REMAINDER_MASK = np.uint64((1 << _REMAINDER_BITS) - 1)
_REMAINDER_ANGLE = 2.0 * math.pi * _INV_2_53  # radians per unit of remainder


def _cos_sin_table() -> np.ndarray:
    """Read-only ``(2, 4096)`` array of ``cos`` and ``sin`` at ``2 pi i / 4096``.

    libm evaluates the first octant only; the rest follows from the exact
    symmetries ``(cos, sin)(pi/2 - t) = (sin, cos)(t)`` and
    ``(cos, sin)(t + pi/2) = (-sin, cos)(t)``, so the quadrant angles are exact.
    """
    n = 1 << _TABLE_BITS
    octant, quadrant = n // 8, n // 4
    first = [2.0 * math.pi * i / n for i in range(octant + 1)]
    table = np.empty((2, n))
    table[0, : octant + 1] = [math.cos(t) for t in first]
    table[1, : octant + 1] = [math.sin(t) for t in first]
    table[:, octant + 1 : quadrant] = table[::-1, octant - 1 : 0 : -1]
    for k in range(1, 4):
        previous = table[:, (k - 1) * quadrant : k * quadrant]
        table[0, k * quadrant : (k + 1) * quadrant] = -previous[1]
        table[1, k * quadrant : (k + 1) * quadrant] = previous[0]
    table.setflags(write=False)
    return table


_COS_SIN = _cos_sin_table()


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (xor-shift-multiply avalanche) on a uint64 array,
    in place: ``z`` is overwritten with the result and returned, and one shift
    buffer is all it allocates."""
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= _MIX_1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX_2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def stream_keys(seed: int, walker_indices) -> np.ndarray:
    """Independent uint64 stream key for each walker index under one seed."""
    w = np.atleast_1d(np.asarray(walker_indices, dtype=np.uint64))
    z = _mix((w + np.uint64(1)) * _GOLDEN)
    z ^= np.uint64(seed & _U64_MASK)
    return _mix(z)


def _draw_block(keys: np.ndarray, draw_index, draws: int) -> np.ndarray:
    """The 53-bit integers of draws ``draw_index + j``, ``j < draws``, of each
    stream (``draw_index`` an int, or one per stream), as the rows ``j`` of a
    fresh ``(draws, n)`` uint64 array mixed in one pass.  Row ``j``'s counter
    is ``keys + (draw_index + j + 1) * golden``: with an int index one add of
    a :func:`key_step` over the keys, with an array the first row's counter
    plus ``key_step(j)``, equal modulo 2**64."""
    keys = np.asarray(keys, dtype=np.uint64)
    if np.ndim(draw_index) == 0:
        first, start = keys, int(draw_index) + 1
    else:
        first, start = keys + (np.asarray(draw_index, dtype=np.uint64) + np.uint64(1)) * _GOLDEN, 0
    z = np.empty((draws,) + first.shape, dtype=np.uint64)
    for j in range(draws):
        np.add(first, key_step(start + j), out=z[j])
    _mix(z)
    z >>= np.uint64(11)
    return z


def _bits(keys: np.ndarray, draw_index) -> np.ndarray:
    """The 53-bit integer of draw ``draw_index`` of each stream (an int, or one
    per stream), in a fresh uint64 array: the one row of :func:`_draw_block`."""
    return _draw_block(keys, draw_index, 1)[0]


def key_step(draws: int) -> np.uint64:
    """What ``draws`` draws add to a stream key, modulo 2**64: draw ``i`` of
    ``key + key_step(k)`` is draw ``k + i`` of ``key``, bit for bit, since a
    draw's counter is the key plus a multiple of the golden step."""
    return np.uint64(draws * int(_GOLDEN) & _U64_MASK)


def uniform(keys: np.ndarray, draw_index) -> np.ndarray:
    """Draw ``draw_index`` of each stream, uniform on [0, 1) with 53-bit mantissa.

    ``draw_index`` is one int for all streams or an integer array with one
    index per stream.
    """
    return _unit(_bits(keys, draw_index))


def _unit(m: np.ndarray) -> np.ndarray:
    """``m / 2**53`` of 53-bit integers ``m``, in a fresh float array."""
    # Below 2**53, so the int64 view converts exactly, and faster than uint64 does.
    u = m.view(np.int64).astype(np.float64)
    u *= _INV_2_53
    return u


def _cos_sin(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``cos`` and ``sin`` of the angles ``2 pi m / 2**53`` of 53-bit integers ``m``,
    the two rows of ``out`` (a fresh ``(2, n)`` array if None): the table entry of the
    top bits rotated by the remainder ``delta``, evaluated in buffers reused once
    their value is spent, in the order of the series written out.

    The table is read with ``take(..., mode="clip")``, which skips the bounds
    check of the default mode: an index ``m >> 41`` of a 53-bit ``m`` has 12
    bits, so it lies in the table and clipping never moves it."""
    if out is None:
        out = np.empty((2, m.shape[0]))
    i = (m >> np.uint64(_REMAINDER_BITS)).view(np.intp)  # below 2**12, so the view is exact
    # Below 2**41, so exact as floats; the int64 view converts faster than uint64 does.
    delta = np.multiply((m & _REMAINDER_MASK).view(np.int64), _REMAINDER_ANGLE)
    d2 = delta * delta
    sin_d = d2 * (1.0 / 120.0)
    np.subtract(1.0 / 6.0, sin_d, out=sin_d)
    sin_d *= d2
    np.subtract(1.0, sin_d, out=sin_d)
    sin_d *= delta  # delta (1 - d2 (1/6 - d2/120)), error below 1e-22
    vers_d = np.multiply(d2, 1.0 / 24.0, out=delta)
    np.subtract(0.5, vers_d, out=vers_d)
    vers_d *= d2  # 1 - cos delta = d2 (1/2 - d2/24), error below 1e-19
    c = _COS_SIN[0].take(i, out=d2, mode="clip")
    s = _COS_SIN[1].take(i, out=out[1], mode="clip")
    cos = np.multiply(c, vers_d, out=out[0])
    cos += np.multiply(s, sin_d, out=i.view(np.float64))  # the spent index buffer
    np.subtract(c, cos, out=cos)  # c - (c vers_d + s sin_d)
    sin_d *= c
    vers_d *= s
    sin_d -= vers_d
    s += sin_d  # s + (c sin_d - s vers_d)
    return out


def draws_per_step(dim: int) -> int:
    """Uniform draws one sphere direction consumes (fixed per dimension).

    A fixed budget per step keeps draw indices aligned across walkers, which is
    what makes single-walk and batched runs bit-identical.
    """
    if dim == 2:
        return 1
    if dim == 3:
        return 2
    return 2 * ((dim + 1) // 2)


def sphere_directions(keys: np.ndarray, base_index, dim: int) -> np.ndarray:
    """One uniform unit vector per stream.

    Consumes draws ``base_index .. base_index + draws_per_step(dim) - 1`` of
    each stream: the angle itself in 2-D, (cos polar, azimuth) in 3-D, and
    Box-Muller normal pairs (then normalization) in higher dimensions.  From
    3-D on all of a step's draws come from one ``(draws, n)`` counter block of
    :func:`_draw_block`, mixed in one pass.  The polar cosine is
    ``(m - 2**52) * 2**-52`` for the draw's 53-bit ``m``, which is exactly
    ``2 u - 1`` for its uniform ``u = m / 2**53``, and its sine is
    ``sqrt(1 - c**2)`` with no clamp, since ``fl(c**2) <= 1``.
    ``base_index`` is one int for all streams or an integer array with one
    index per stream; each row depends only on its own key and index, so a
    row equals the same stream's direction drawn alone.  The cosine and sine
    of each angle come from the table rotation of the module docstring:
    components are within about 1.5 * 2**-53 of those of the exact angle and
    unit norms within 4.5e-16 of 1 in 2-D.  The ``(n, dim)`` result is the
    transpose of a coordinate-major ``(dim, n)`` buffer.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    if dim == 2:
        return _cos_sin(_bits(keys, base_index)).T
    z = _draw_block(keys, base_index, draws_per_step(dim))
    if dim == 3:
        g = np.empty((3, n))
        m = z[0].view(np.int64)
        m -= 1 << 52  # exact: |m - 2**52| <= 2**52
        c = np.multiply(m, 2.0**-52, out=g[2])
        s = np.multiply(c, c, out=z[0].view(np.float64))  # the spent draw's buffer
        np.subtract(1.0, s, out=s)
        _cos_sin(z[1], g[:2])
        g[:2] *= np.sqrt(s, out=s)
        return g.T
    g = np.empty(z.shape)
    for j in range(0, z.shape[0], 2):
        u1 = _unit(z[j])
        _cos_sin(z[j + 1], g[j : j + 2])
        g[j : j + 2] *= np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], so the log is finite
    v = g[:dim]
    norms = _distances(v.T)  # numpy's axis-1 norm bit for bit, C-order from 8 columns on
    # A zero Gaussian vector has probability ~0; fall back to a fixed axis.
    degenerate = norms < 1e-14
    if np.any(degenerate):
        v[:, degenerate] = 0.0
        v[0, degenerate] = 1.0
        norms[degenerate] = 1.0
    v /= norms
    return v.T
