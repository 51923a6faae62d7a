"""Ints as ``str`` and floats as ``repr`` write them, a block of values at a time:
columns of uint8 arrays padded with ``_PAD``, a byte UTF-8 never holds. The
one number formatter of every CSV writer."""

from __future__ import annotations

import numpy as np

# Rows formatted per block: bounds the block's arrays, some 300 bytes a
# prediction-file row. On a one-seed ladder-inference run, 4096-row blocks
# formatted ~10% faster than 2048 but left the parent's peak RSS ~4 MB
# higher from the second run in a process on; 1024-row blocks cost ~30%
# more per row for no less memory.
WRITE_BLOCK_ROWS = 2048

_PAD = b"\xff"
_SIGN = np.frombuffer(_PAD + b"-", np.uint8)
_COMMA = np.frombuffer(b",", np.uint8)
_NEWLINE = np.frombuffer(b"\n", np.uint8)
# "0000" ... "9999", four ASCII bytes each: a (10_000, 1) uint32 array.
_FOUR = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_FOUR = _FOUR.view(np.uint32)
# Entry 10_000 * n + v: the last n digits of v (0 <= v < 10_000, n <= 4),
# right-aligned after _PAD: the mask keeps the last n bytes, the rest are 0xFF.
_SHOWN = np.frombuffer(b"".join(b"\0" * (4 - n) + b"\xff" * n for n in range(5)), np.uint32)
_DIGITS = ((_FOUR.T & _SHOWN[:, None]) | ~_SHOWN[:, None]).reshape(-1)
_POW10 = np.array([10**i for i in range(20)], np.uint64)
_POW10_I = _POW10[:19].astype(np.int64)
# 10**0 ... 10**22, each exactly a double.
_POW10_F = np.array([float(10**i) for i in range(23)])
# A distance within this relative margin of a bound is left to repr: the
# double arithmetic of _shortest is within a few ulps (2**-52) of exact.
_TOL = 2.0**-40


def _joined(fields, shape) -> bytes:
    """The UTF-8 text of rows of ``shape`` made of ``fields`` side by side: each field
    a uint8 array padded with ``_PAD`` whose leading axes broadcast to ``shape``."""
    rows = np.empty((*shape, sum(f.shape[-1] for f in fields)), np.uint8)
    col = 0
    for field in fields:
        rows[..., col : col + field.shape[-1]] = field
        col += field.shape[-1]
    text = rows.tobytes()
    del rows  # freed before the text without the pad is made
    return text.translate(None, _PAD)


def _digits(v: np.ndarray, shown: np.ndarray, width: int) -> np.ndarray:
    """The last ``shown`` decimal digits of each uint64 of ``v``, zero-padded
    and right-aligned after ``_PAD`` in ``width`` ASCII columns: an (n, width) uint8 array."""
    chunks = -(-width // 4)
    out = np.empty((len(v), chunks), np.uint32)
    for i in range(chunks):
        q = v // 10_000
        table = np.clip(shown - 4 * i, 0, 4) * 10_000
        out[:, chunks - 1 - i] = _DIGITS[table + (v - q * 10_000).view(np.int64)]
        v = q
    return out.view(np.uint8)[:, 4 * chunks - width :]


def _int_digits(v: np.ndarray) -> np.ndarray:
    """The digits of each uint64 of ``v``, right-aligned after ``_PAD``."""
    width = len(str(int(v.max(initial=0))))
    shown = np.ones(len(v), np.int64)
    for i in range(1, width):
        shown += v >= _POW10[i]
    return _digits(v, shown, width)


def _int_chars(a) -> np.ndarray:
    """``str`` of each int of ``a`` (cast to int64): an (n, width) uint8 array, a sign
    column and the digits, padded with ``_PAD``."""
    a = np.asarray(a).astype(np.int64)
    digits = _int_digits(np.abs(a).view(np.uint64))  # |-2**63| wraps to 2**63 in uint64
    out = np.empty((len(a), 1 + digits.shape[1]), np.uint8)
    out[:, 0] = _SIGN[(a < 0).view(np.uint8)]
    out[:, 1:] = digits
    return out


def _float_chars(x) -> list[np.ndarray]:
    """``repr`` of each float of ``x`` (flattened, cast to float64): (n, width) uint8
    arrays padded with ``_PAD``, whose columns side by side give the text.

    Values with 1e-4 <= |x| < 1e15 take the shortest round-trip digits from
    :func:`_shortest` and are laid out as ``repr`` lays them out there:
    positional, with at least one digit on each side of the point. Zeros
    are "0.0" and "-0.0". Every other value, and every value ``_shortest``
    leaves undecided, is formatted by ``repr`` itself.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    magnitude = np.abs(x)
    digits = np.zeros(len(x), np.uint64)
    frac_digits = np.zeros(len(x), np.int64)  # after the point, in digits
    exact = np.flatnonzero((magnitude >= 1e-4) & (magnitude < 1e15))
    m, point, decided = _shortest(magnitude[exact])
    exact = exact[decided]
    digits[exact], frac_digits[exact] = m[decided], -point[decided]
    by_repr = np.ones(len(x), bool)
    by_repr[exact] = False
    by_repr[magnitude == 0] = False
    sign = _SIGN[np.signbit(x).view(np.uint8), None]
    # The shortest digits round to x, and no integer lies between them and x
    # (every integer below 2**53 is a double), so their integer part is x's.
    whole = _int_digits(np.floor(np.where(by_repr, 0.0, magnitude)).astype(np.uint64))
    dot = np.full((len(x), 1), ord("."), np.uint8)
    # The digits after the point are the last frac_digits digits of m.
    digits[frac_digits <= 0] = 0
    shown = np.maximum(frac_digits, 1)
    frac = _digits(digits, shown, int(shown.max(initial=1)))
    texts = [repr(v).encode() for v in x[by_repr].tolist()]
    if not texts:
        return [sign, whole, dot, frac]
    for field in (sign, whole, dot, frac):
        field[by_repr] = _PAD[0]
    width = max(map(len, texts))
    text = np.full((len(x), width), _PAD[0], np.uint8)
    padded = b"".join(t.ljust(width, _PAD) for t in texts)
    text[by_repr] = np.frombuffer(padded, np.uint8).reshape(-1, width)
    return [sign, whole, dot, frac, text]


def _shortest(a: np.ndarray):
    """Python's shortest round-trip digits of the floats ``a`` (1e-4 <= a < 1e15).

    Returns ``(m, point, decided)``: where ``decided``, ``m * 10**point`` is
    the decimal with the fewest digits that rounds to ``a``, and among
    those the nearest to it, as ``repr`` writes it.

    Each value is scaled by an exact power of ten, 10**k, to 17 integer
    digits, as an exact double-double ``hi + lo``: ``hi`` is an integer
    above 2**53, so ``m17 = hi + rint(lo)`` is the nearest 17-digit integer
    and ``e17 = lo - rint(lo)`` the exact rest. With j digits fewer, the
    candidate is the nearest multiple of 10**j; it rounds to ``a`` when it
    lies within ``half`` (half an ulp of ``a``, times 10**k) of ``m17 +
    e17``, and the largest such j gives the shortest digits. The distances
    are exact or within an ulp, so a value is left undecided only when its
    round-trip interval is not symmetric (a power of two), or when a
    candidate lies within a relative 2**-40 of the interval's edge or of a
    tie between two candidates.
    """
    mantissa, exponent = np.frexp(a)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    scaled = a * _POW10_F[k]
    k += (scaled < 1e16).astype(np.int64) - (scaled >= 1e17)
    hi, lo = _two_product(a, _POW10_F[k])
    half = np.ldexp(_POW10_F[k], exponent - 54)  # in (0.55, 11.2): hi is in [1e16, 1e17)
    inside, outside = half * (1 - _TOL), half * (1 + _TOL)
    c = np.rint(lo)
    m17 = hi.astype(np.int64) + c.astype(np.int64)
    e17 = lo - c  # |e17| <= 0.5 < half: 17 digits always round-trip
    decided = (mantissa != 0.5) & (np.abs(e17) != 0.5)
    drop = np.zeros(len(a), np.int64)
    for step in (10, 100):
        rest = m17 - m17 // step * step
        down, up = rest + e17, (step - rest) - e17
        near = np.minimum(down, up)
        valid = near < inside
        decided &= valid | (near > outside)
        if step == 10:  # both multiples of 10 may lie within half: a near tie is undecided
            decided &= ~(valid & (np.abs(down - up) <= _TOL * step))
        drop += valid
    # At most one multiple of 100 lies within half, so where there is one, it is
    # the candidate for every j >= 2 that rounds to a: drop its trailing zeros.
    two = np.flatnonzero(drop == 2)
    m100 = m17.take(two) // 100 + (up < down).take(two)
    drop[two] += (m100[:, None] % _POW10_I[1:15] == 0).sum(axis=1)
    step = _POW10_I[drop]
    m = m17 // step
    m += 2 * ((m17 - m * step) + e17) > step
    decided &= m < _POW10_I[17 - drop]  # 17 - j digits: no carry into one more
    return m.astype(np.uint64), drop - k, decided


def _two_product(a: np.ndarray, b: np.ndarray):
    """``a * b`` exactly, as ``hi + lo`` (Dekker's product; numpy has no fma)."""
    hi = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    return hi, lo


def _split(a: np.ndarray):
    """``a`` as the sum of two doubles of at most 26 significant bits each (Veltkamp)."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi
