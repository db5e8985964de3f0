"""``repr`` of every float64 in a table, byte for byte, without a call per float.

Digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) on ``uint64`` arrays, each 128-bit product split into 32-bit
limbs: the shortest decimal that reads back as the float, the closer of two,
ties to even, as CPython's ``dtoa.c``.  Unlike Java's ``Double.toString``,
subnormals keep one digit and the shorter candidate is tried at every length.
Each float is spelled into a column of fixed slots: a sign, the ``0.000`` of
small positional numbers, 17 digit slots each followed by a dot slot and
``e±ddd``; transposed, with its table column's separator, that is its cell.
Unused slots hold NUL, which ``translate`` drops.  Zero is laid out as 1.0
with a ``0`` digit; infinities and NaN use ``repr``.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64(0x7FFFFFFFFFFFFFFF)
_INF = _U64(0x7FF0000000000000)
# floats per pass: larger chunks spill the uint64 temporaries out of cache
_CHUNK = 2048
# repr is faster below: within whole classify ops the two tie at 1,400-1,600 floats
_KERNEL_FROM = 1536


def _g_limbs() -> np.ndarray:
    """Schubfach's g = floor(10**-k / 2**r) + 1 in [2**125, 2**126), k = -324 .. 292, a
    column each: g1 = g >> 63 and the 32-bit limbs of g1 and of g0 = g mod 2**63."""
    rows = []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        g = (p << 126 >> p.bit_length() if k <= 0 else (1 << 125 + p.bit_length()) // p) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(rows, dtype=_U64).T.copy()


def _mulhi(ah, al, bh, bl):
    """High 64 bits of a * b, given by their 32-bit limbs."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): f * 10**k is ``repr``'s decimal for each positive finite float,
    given by its bits; f may end in zeros."""
    bq = (bits >> 52).astype(np.int64)
    t = bits & _U64(0xFFFFFFFFFFFFF)
    c = t | ((bq > 0).astype(_U64) << 52)
    q = np.maximum(bq, 1) - 1075
    # at a power of two the gap below is half the gap above
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U64)
    g1, g1h, g1l, g0h, g0l = _G.take(k + 324, axis=1)
    cb = c << 2
    # vb and the ends of its rounding interval, scaled by 4 * 10**-k
    cps = np.stack((cb, cb - 2 + irregular, cb + 2)) << h
    cph, cpl = cps >> 32, cps & _M32
    z = (g1 * cps >> 1) + _mulhi(g0h, g0l, cph, cpl)
    vb, vbl, vbr = _mulhi(g1h, g1l, cph, cpl) + (z >> 63) | ((z & _M63) + _M63) >> 63
    out = c & 1  # an odd c excludes the interval's ends
    s = vb >> 2
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + out <= sp10 << 2
    wpin = (tp10 << 2) + out <= vbr
    s1 = s + 1
    uin = vbl + out <= s << 2
    win = (s1 << 2) + out <= vbr
    mid = (s + s1) << 1
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(lower, s, s1))
    return f, k


def _exponent_forms() -> tuple[np.ndarray, np.ndarray]:
    """Per decimal exponent E = -324 .. 308: the five ``0.000`` prefix slots
    and five ``e±ddd`` suffix slots, one row per slot, and the digit slots
    positional notation keeps (E + 2, through the ``.0``, or 0)."""
    e = np.arange(-324, 309)
    positional = (e >= -4) & (e < 16)
    prefix = np.frombuffer(b"0.000", np.uint8)[:, None] * (_SLOTS[:5, None] < 1 - e)
    a = np.abs(e)
    suffix = np.stack((
        np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
        np.where(a >= 100, 48 + a // 100, 0), 48 + a // 10 % 10, 48 + a % 10,
    ))
    affix = np.concatenate((prefix * (positional & (e < 0)), suffix * ~positional))
    return affix.astype(np.uint8), np.where(positional & (e >= 0), e + 2, 0)


_G = _g_limbs()
_POW10 = 10 ** np.arange(18, dtype=_U64)
_SLOTS = np.arange(17)
_RANKS = np.arange(1, 18, dtype=np.uint8)[:, None]
_AFFIX, _KEPT = _exponent_forms()
# the four digit characters of 0 .. 9999, as one uint32 each
_QUADS = (48 + np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10).astype(np.uint8)
_QUADS = _QUADS.view(np.uint32).ravel()


def _fill(slots: np.ndarray, bits: np.ndarray) -> None:
    """Write the text of positive finite floats, given by their bits, into rows
    1-44 of ``slots``, a column each."""
    f, k = _shortest(bits)
    n = np.searchsorted(_POW10, f, side="right")
    f = f * _POW10[17 - n]  # 17 digits, the first nonzero
    halves = f % _U64(10**16) // np.array([[10**8], [1]], _U64) % _U64(10**8)
    tops = halves // _U64(10**4)
    quads = np.stack((tops, halves - tops * _U64(10**4)), axis=1).reshape(4, -1)
    digits = slots[6:40:2]
    digits[0] = f // _U64(10**16) + 48
    digits[1:].reshape(4, 4, -1)[...] = _QUADS.take(quads.astype(np.intp)).view(
        np.uint8).reshape(4, -1, 4).transpose(0, 2, 1)
    count = ((digits != 48) * _RANKS).max(axis=0)
    e = k + n - 1 + 324
    kept = _KEPT[e]
    # a dot after the units digit; in exponent form after the first digit,
    # unless it is the only one; none after a 0.000 prefix
    dot = np.where(kept > 0, kept - 2, np.where((_AFFIX[5, e] > 0) & (count > 1), 0, -1))
    digits *= _SLOTS[:, None] < np.maximum(count, kept)
    np.multiply(_SLOTS[:, None] == dot, np.uint8(ord(".")), out=slots[7:41:2])
    affix = _AFFIX.take(e, axis=1)
    slots[1:6] = affix[:5]
    slots[40:45] = affix[5:]


def _spell(values: np.ndarray, cells: np.ndarray) -> None:
    """Write the text of each float into slots 0-44 of its row of ``cells``,
    ``_CHUNK`` floats at a time."""
    bits = np.abs(values).view(_U64)
    stand_in = np.where((bits == 0) | (bits >= _INF), _U64(0x3FF0000000000000), bits)  # 1.0
    slots = np.empty((45, min(_CHUNK, len(values))), np.uint8)
    for lo in range(0, len(values), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        part = slots[:, : len(values[chunk])]
        part[0] = ord("-") * (np.signbit(values[chunk]) & ~np.isnan(values[chunk]))
        _fill(part, stand_in[chunk])
        part[6] -= bits[chunk] == 0  # 1.0 becomes 0.0
        for i in np.flatnonzero(bits[chunk] >= _INF):
            spelled = np.frombuffer(repr(abs(float(values[lo + i]))).encode(), np.uint8)
            part[1:, i] = 0
            part[6 : 6 + 2 * len(spelled) : 2, i] = spelled
        cells[chunk, :45] = part.T


def format_rows(table: np.ndarray, separators: list[str]) -> str:
    """The rows of a float64 table as text, row-major, each cell ``repr`` of its
    float followed by its column's separator; from ``_KERNEL_FROM`` floats on, by the kernel."""
    if table.size >= _KERNEL_FROM:
        return _kernel_rows(table, separators)
    cells = [""] * (2 * table.size)
    cells[::2] = map(repr, table.ravel().tolist())
    cells[1::2] = separators * len(table)
    return "".join(cells)


def _kernel_rows(table: np.ndarray, separators: list[str]) -> str:
    """:func:`format_rows` by the kernel, at any size.  A column's trailing run
    of floats bitwise equal to its last (a dead negativity, a frozen
    population) is spelled once and its cell copied down the run."""
    width = max(map(len, separators))
    seps = np.stack([np.frombuffer(s.encode().ljust(width, b"\0"), np.uint8)
                     for s in separators])
    columns = len(separators)
    bits = table.view(_U64)
    # the first row of each column's run, compared by bits: 0.0 and -0.0
    # differ; a row above row 0 differs, so a constant column's run is all of it
    differs = np.vstack((np.ones((1, columns), bool), bits != bits[-1:]))
    first = len(table) - differs[::-1].argmax(axis=0)
    step = max(1, _CHUNK // columns)
    text = []
    for lo in range(0, len(table), _CHUNK):
        block = table[lo : lo + _CHUNK]
        # spelled: each column's cells down to its run's first; one if the
        # run began in an earlier block
        counts = np.clip(first + 1 - lo, 1, len(block))
        heads = np.concatenate([block[:n, j] for j, n in enumerate(counts.tolist())])
        cells = np.empty((len(heads), 45 + width), np.uint8)
        _spell(heads, cells)
        cells[:, 45:] = np.repeat(seps, counts, axis=0)
        # row i of column j is its head min(i, counts[j] - 1)
        index = np.minimum(np.arange(len(block))[:, None], counts - 1) + np.cumsum(counts) - counts
        text += [cells.take(index[i : i + step], axis=0).tobytes().translate(None, b"\0")
                 for i in range(0, len(block), step)]
    return b"".join(text).decode("ascii")
