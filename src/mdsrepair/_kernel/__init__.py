"""Row reduction kernels over lookup table fields.

Matrices live in flat bytearrays, row major, entries encoded as field
element codes in [0, q).  Arithmetic arrives as flat lookup tables:
sub[a*q + b] = a - b, mul[a*q + b] = a * b, inv[a] = 1/a (inv[0] unused).
Both kernels destroy the buffer contents.
"""


def rre_rank(buf, rows, cols, q, sub, mul, inv):
    """Row echelon form in place, returns the rank.

    Rows at index >= rank hold elimination residue, not meaningful data.
    """
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        piv = -1
        for r in range(rank, rows):
            if buf[r * cols + col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            a = piv * cols
            b = rank * cols
            for j in range(col, cols):
                buf[a + j], buf[b + j] = buf[b + j], buf[a + j]
        base = rank * cols
        pinv = inv[buf[base + col]]
        for r in range(rank + 1, rows):
            off = r * cols
            f = mul[buf[off + col] * q + pinv]
            if f:
                for j in range(col, cols):
                    buf[off + j] = sub[buf[off + j] * q + mul[f * q + buf[base + j]]]
        rank += 1
    return rank


def rref_rank(buf, rows, cols, q, sub, mul, inv):
    """Reduced row echelon form in place, returns the rank.

    After the call rows 0..rank-1 are the canonical reduced basis of the
    row space (pivots 1, pivot columns cleared) and all later rows are zero.
    """
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        piv = -1
        for r in range(rank, rows):
            if buf[r * cols + col]:
                piv = r
                break
        if piv < 0:
            continue
        base = rank * cols
        if piv != rank:
            a = piv * cols
            for j in range(col, cols):
                buf[a + j], buf[base + j] = buf[base + j], buf[a + j]
        pinv = inv[buf[base + col]]
        if pinv != 1 or buf[base + col] != 1:
            for j in range(col, cols):
                buf[base + j] = mul[buf[base + j] * q + pinv]
        for r in range(rows):
            if r == rank:
                continue
            off = r * cols
            f = buf[off + col]
            if f:
                for j in range(col, cols):
                    buf[off + j] = sub[buf[off + j] * q + mul[f * q + buf[base + j]]]
        rank += 1
    return rank
