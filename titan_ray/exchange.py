"""Key-co-locating exchange with one kernel call per shuffled block.

Ray's ``groupby(key).map_groups(fn)`` is ``sort(key)`` followed by a
``map_batches(batch_size=None)`` that slices each block at its key
boundaries and calls ``fn`` once per key. The transcript kernels are already
vectorized across keys, so every call after the first in a block is pure
overhead. ``bucket_exchange`` keeps the same sort (same output blocks, same
tasks) and hands each block to ``fn`` whole.
"""

from __future__ import annotations


def bucket_exchange(ds, key: str, fn, **map_kwargs):
    """Co-locate rows by ``key``, then run ``fn`` once per shuffled block.

    ``ds.sort(key).map_batches(fn, batch_format="pyarrow", batch_size=None)``;
    ``map_kwargs`` pass through to ``map_batches``. Correct because of two
    facts, the first the same guarantee ``map_groups`` relies on:

    1. A range-partitioned sort never splits one key value across output
       blocks: every row equal to a partition boundary lands on the same
       side, so each block holds whole keys.
    2. ``fn`` must be key-composable: ``fn(A ∪ B) == fn(A) ∪ fn(B)`` (as row
       multisets) for row sets A, B with disjoint keys. A kernel that groups
       or masks by the key, or by anything finer, is; one that reads across
       keys (a global top-k, a whole-table rank) is not.

    Together they make the output equal, up to row order, to calling ``fn``
    once per key.
    """
    return ds.sort(key).map_batches(fn, batch_format="pyarrow", batch_size=None, **map_kwargs)
