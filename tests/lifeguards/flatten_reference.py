"""The columnar AddrCheck kernel's access-stream flatten as it was
before the kernel moved off numpy's slow paths, kept as the reference
the identity tests diff the rewrite against.

``flatten`` is the parent commit's flatten verbatim -- the int64
``_DST_LUT``, both tables fancy-indexed with the uint8 op column,
``flatnonzero`` over the int64 column, the boolean-mask scatter and
gather -- with ``cols`` an already concatenated group.  Never imported
by ``src/``.
"""

from repro.core.columnar import (
    HAVE_NUMPY,
    OP_ASSIGN,
    OP_JUMP,
    OP_READ,
    OP_WRITE,
    np,
)

if HAVE_NUMPY:
    _ACC_LUT = np.zeros(256, dtype=bool)
    _ACC_LUT[[OP_READ, OP_WRITE, OP_ASSIGN, OP_JUMP]] = True
    _DST_LUT = np.zeros(256, dtype=np.int64)
    _DST_LUT[[OP_WRITE, OP_ASSIGN]] = 1
else:
    _ACC_LUT = _DST_LUT = None


def flatten(cols):
    """``(acc_off, acc_loc)``: per event, its access slots
    ``acc_off[e]..acc_off[e+1]-1``; the slots hold its sources, then its
    destination for WRITE/ASSIGN."""
    n = cols.length
    ops = np.asarray(cols.op)
    dst_col = np.asarray(cols.dst)
    src_off = np.asarray(cols.src_off)
    src_val = np.asarray(cols.src_val)
    cnt = src_off[1:] - src_off[:-1]
    is_acc = _ACC_LUT[ops]
    src_cnt = np.where(is_acc, cnt, 0)
    dst_extra = _DST_LUT[ops]
    tot = src_cnt + dst_extra
    acc_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tot, out=acc_off[1:])
    total = int(acc_off[-1])
    acc_loc = np.empty(total, dtype=np.int64)
    if total:
        dst_ev = np.flatnonzero(dst_extra)
        dst_pos = acc_off[dst_ev] + src_cnt[dst_ev]
        if total - dst_ev.shape[0] != src_val.shape[0]:
            src_ev = np.repeat(np.arange(n, dtype=np.int64), cnt)
            keep = is_acc[src_ev]
            kept_ev = src_ev[keep]
            kept_start = np.cumsum(src_cnt) - src_cnt
            pos = (acc_off[:-1] - kept_start)[kept_ev] + np.arange(
                kept_ev.shape[0], dtype=np.int64
            )
            acc_loc[pos] = src_val[keep]
        elif src_val.shape[0]:
            is_src_slot = np.ones(total, dtype=bool)
            is_src_slot[dst_pos] = False
            acc_loc[is_src_slot] = src_val
        acc_loc[dst_pos] = dst_col[dst_ev]
    return acc_off, acc_loc
