"""``repr`` of every float64 in a table, byte for byte, without a call per float.

Digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) on ``uint64`` arrays, one 128-bit product per float by 32-bit
limbs, its rounding interval's ends by shifts and carries: the shortest decimal
that reads back as the float, the closer of two, ties to even, as CPython's
``dtoa.c``.  Unlike Java's ``Double.toString``, subnormals keep one digit and
the shorter candidate is tried at every length.
Each float's cell is row-major little-endian ``uint64`` words, with no
transpose: word 0 holds the sign, the ``0.000`` of small positional numbers
(by decimal exponent), the first digit and its dot byte; words 1-4 each hold
a group of four more digits at the even bytes, each followed by a dot byte,
the group's characters masked by a table row chosen by digit count and dot
position; word 5 holds ``e±ddd`` (by decimal exponent), and the table
column's separator starts at byte 45, in a seventh word if it is longer than
three bytes.  NUL bytes, which ``translate`` drops, fill the rest.  Zero is
laid out as 1.0 with a ``0`` digit; infinities and NaN use ``repr``.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64(0x7FFFFFFFFFFFFFFF)
_INF = _U64(0x7FF0000000000000)
# floats per pass: 4,096 made whole xstate_scan and dense_numeric passes slower
_CHUNK = 2048
# repr is faster below: within whole classify ops the two tie at 800-1,000 floats
_KERNEL_FROM = 1024


def _g_limbs() -> np.ndarray:
    """Schubfach's g = floor(10**-k / 2**r) + 1 in [2**125, 2**126), k = -324 .. 292, a
    column each: g1 = g >> 63, the 32-bit limbs of g1 and of g0 = g mod 2**63, and g0."""
    rows = []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        g = (p << 126 >> p.bit_length() if k <= 0 else (1 << 125 + p.bit_length()) // p) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF, g0))
    return np.array(rows, dtype=_U64).T.copy()


def _mulhi(ah, al, bh, bl):
    """High 64 bits of a * b, given by their 32-bit limbs."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _odd(y1, y0, x1):
    """g * cp >> 127 rounded to odd, given g1 * cp in words and (g0 * cp) >> 64."""
    z = (y0 >> 1) + x1
    return y1 + (z >> 63) | ((z & _M63) + _M63) >> 63


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): f * 10**k is ``repr``'s decimal for each positive finite float,
    given by its bits; f may end in zeros.  Each 63-bit word of g is multiplied
    by ``cp`` once; the interval's ends ``cp + 2**e`` and ``cp - 2**e`` add or
    take ``g << e`` from those products word by word, with exact carries."""
    bq = (bits >> 52).astype(np.int64)
    t = bits & _U64(0xFFFFFFFFFFFFF)
    c = t | ((bq > 0).astype(_U64) << 52)
    q = np.maximum(bq, 1) - 1075
    # at a power of two the gap below is half the gap above
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U64)
    g1, g1h, g1l, g0h, g0l, g0 = _G.take(k + 324, axis=1)
    # vb and the ends of its rounding interval, scaled by 4 * 10**-k
    cp = c << _U64(2) << h
    cph, cpl = cp >> 32, cp & _M32
    y1, y0, x1, x0 = _mulhi(g1h, g1l, cph, cpl), g1 * cp, _mulhi(g0h, g0l, cph, cpl), g0 * cp
    vb = _odd(y1, y0, x1)
    # a word w of g shifted by e spans w << e and w >> r; 2 <= h <= 5 keeps e, r in range
    e = h + _U64(1)
    y0r, x0r, r = y0 + (g1 << e), x0 + (g0 << e), _U64(64) - e
    vbr = _odd(y1 + (g1 >> r) + (y0r < y0), y0r, x1 + (g0 >> r) + (x0r < x0))
    e, r = e - irregular, r + irregular
    y0l, x0l = y0 - (g1 << e), x0 - (g0 << e)
    vbl = _odd(y1 - (g1 >> r) - (y0l > y0), y0l, x1 - (g0 >> r) - (x0l > x0))
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


def _layout_tables() -> tuple[np.ndarray, ...]:
    """Per decimal exponent E = -324 .. 308: word 0's ``0.000`` prefix and
    word 5's ``e±ddd`` suffix; per E and significant-digit count 0 .. 17
    (0 stands for a lone first digit) the layout ``max(count, kept) * 18 +
    dot + 1``, where positional notation keeps E + 2 digits (through the
    ``.0``) and ``dot`` is the digit the dot follows, or -1; per layout, a
    column each, word 0's dot and the masks of words 1-4, which keep their
    digits and their dot."""
    e = np.arange(-324, 309)
    positional = (e >= -4) & (e < 16)
    prefix = np.zeros((len(e), 8), np.uint8)
    prefix[:, 1:6] = np.frombuffer(b"0.000", np.uint8) * (np.arange(5) < 1 - e[:, None])
    prefix *= (positional & (e < 0))[:, None]
    a = np.abs(e)
    suffix = np.zeros((len(e), 8), np.uint8)
    suffix[:, :5] = np.column_stack((
        np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
        np.where(a >= 100, 48 + a // 100, 0), 48 + a // 10 % 10, 48 + a % 10,
    )) * ~positional[:, None]
    kept = np.where(positional & (e >= 0), e + 2, 0)[:, None]
    count = np.maximum(np.arange(18), 1)
    dot = np.where(kept > 0, kept - 2, np.where(~positional[:, None] & (count > 1), 0, -1))
    layout = (np.maximum(count, kept) * 18 + dot + 1).astype(np.uint16)
    # the digits kept, and those before the dot (none: no dot)
    length, before = np.divmod(np.arange(18 * 18)[:, None], 18)
    slot = np.arange(40)  # byte 6 + 2i is digit i, byte 7 + 2i its dot
    masks = np.where(slot % 2, ord(".") * (slot == 5 + 2 * before) * (before > 0),
                     255 * ((slot >= 8) & (slot < 6 + 2 * length)))
    return (prefix.view(_LE).ravel(), suffix.view(_LE).ravel(), layout.ravel(),
            masks.astype(np.uint8).view(_LE).T.copy())


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per group of four digits q = 0 .. 9999: their characters at bytes 0, 2,
    4 and 6 of a word, with 0xFF at the odd bytes for a mask's dot, and, in
    the row of each of words 1-4, the significant-digit count of a float
    whose last nonzero group is q (0 for q = 0)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # a row per digit
    spaced = np.full((10000, 8), 255, np.uint8)
    spaced[:, ::2] = 48 + digits.T
    last = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    counts = (last + np.arange(1, 17, 4, dtype=np.uint8)[:, None]) * (last > 0)
    return spaced.view(_LE).ravel(), counts.ravel()


_LE = np.dtype("<u8")
_G = _g_limbs()
_POW10 = 10 ** np.arange(18, dtype=_U64)
_PREFIX, _SUFFIX, _LAYOUT, _MASKS = _layout_tables()
_QUAD8, _COUNT = _quad_tables()
# where each of words 1-4 reads its counts in _COUNT
_GROUP = np.arange(0, 40000, 10000)[:, None]


def _spell(values: np.ndarray, cells: np.ndarray) -> None:
    """Write the text of each float into words 0-4 of its row of ``cells``,
    and OR its exponent suffix into word 5, ``_CHUNK`` floats at a time."""
    bits = np.abs(values).view(_U64)
    stand_in = np.where((bits == 0) | (bits >= _INF), _U64(0x3FF0000000000000), bits)  # 1.0
    # the first digit's offset, 0 for zero, which turns 1.0 into 0.0, and the sign byte
    sign = (np.signbit(values) & ~np.isnan(values)) * _U64(ord("-"))
    offset = (_U64(48) - (bits == 0) << _U64(48)) | sign
    for lo in range(0, len(values), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        f, k = _shortest(stand_in[chunk])
        n = np.searchsorted(_POW10, f, side="right")
        f = f * _POW10[17 - n]  # 17 digits, the first nonzero
        e = k + n + 323
        top = f // _U64(10**16)
        rest = (f - top * _U64(10**16)).view(np.int64)
        # the four groups of four digits after the first, a row each
        high = rest // 10**8
        halves = np.stack((high, rest - high * 10**8))
        tops = halves // 10**4
        quads = np.stack((tops, halves - tops * 10**4), axis=1).reshape(4, -1)
        layout = _LAYOUT.take(e * 18 + _COUNT.take(quads + _GROUP).max(axis=0))
        masks = _MASKS.take(layout, axis=1)
        np.bitwise_and(_QUAD8.take(quads), masks[1:], out=cells[chunk, 1:5].T)
        cells[chunk, 0] = _PREFIX.take(e) | masks[0] | (top << _U64(48)) + offset[chunk]
        cells[chunk, 5] |= _SUFFIX.take(e)
    for i in np.flatnonzero(bits >= _INF):
        text = np.zeros(40, np.uint8)
        text[0] = cells[i, 0] & _U64(0xFF)  # the sign
        spelled = np.frombuffer(repr(abs(float(values[i]))).encode(), np.uint8)
        text[6 : 6 + 2 * len(spelled) : 2] = spelled
        cells[i, :5] = text.view(_LE)


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
    # a cell is 45 bytes of float and its separator, in whole words
    words = (45 + max(map(len, separators)) + 7) // 8
    seps = np.frombuffer(b"".join(bytes(5) + s.encode().ljust(8 * words - 45, b"\0")
                                  for s in separators), _LE).reshape(-1, words - 5)
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
        cells = np.empty((len(heads), words), _LE)
        cells[:, 5:] = np.repeat(seps, counts, axis=0)
        _spell(heads, cells)
        # row i of column j is its head min(i, counts[j] - 1)
        index = np.minimum(np.arange(len(block))[:, None], counts - 1) + np.cumsum(counts) - counts
        text += [cells.take(index[i : i + step], axis=0).tobytes().translate(None, b"\0")
                 for i in range(0, len(block), step)]
    return b"".join(text).decode("ascii")
