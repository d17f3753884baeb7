"""The engine's one keyed exchange: a sort on a bucket key, then one kernel
call per shuffled block.

Every neighbourhood check co-locates rows by a key column (usually ``_b`` =
hash(entity) % B, the flagship's ``bucket`` / ``_dd_bucket``, or a small
enum such as ``lang``) and reduces them with a vectorized kernel. Ray's
``groupby(key).map_groups(fn)`` is ``sort(key)`` followed by a
``map_batches(batch_size=None)`` that slices each block at its key
boundaries and calls ``fn`` once per key. ``bucket_exchange`` keeps the same
sort (same output blocks, same tasks) and hands each block to ``fn`` whole,
so the engine has one exchange idiom and no per-key Python calls.

The rule: a kernel run through the exchange must be key-composable (see
``bucket_exchange``). A kernel that groups, joins, masks or sorts by the
entity the key was derived from (a user, a doc, a word, a band hash, a
cluster), or by anything finer, is. So is a partial aggregate whose rows the
next step re-reduces with the same associative merge (per-bucket counts
summed downstream, a per-bucket top-k reduced to a global top-k): one call
over several buckets emits what that merge makes of the per-bucket rows.
The usual merge, group by the entity and sum the partial columns, is
``sum_merge``.

No site is kept on ``map_groups`` (``tests/test_exchange.py`` fails on a new
one). Kernels that read one whole group were made composable instead:
``doc_token_shards`` and ``doc_mix_interleave`` look a bucket's offset up
per row, ``doc_quality_auc`` emits one row per value-range bucket,
``semantic_dedup`` builds one similarity matrix per cluster within the
block, ``embedding_mutual_nn`` counts rows per pair key, and
``doc_source_quota`` / ``events_value_gmd`` / ``doc_hull_points`` /
``doc_bottomk_per_lang`` reduce per ``source`` / ``event_type`` / ``lang``
within the block.
"""

from __future__ import annotations

import pyarrow as pa


def bucket_exchange(ds, key: str, fn, **map_kwargs):
    """Co-locate rows by ``key``, then run ``fn`` once per shuffled block.

    ``ds.sort(key).map_batches(..., batch_format="pyarrow", batch_size=None)``;
    ``fn`` gets each non-empty block whole, ``key`` column included (a
    kernel names the columns it reads and emits, so the key never leaks
    into its output), and ``map_kwargs`` pass through to ``map_batches``.
    Correct because of two facts, the first the same guarantee
    ``map_groups`` relies on:

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

    def per_block(t: pa.Table):
        if t.num_rows:  # the sort leaves empty blocks; map_groups calls fn on none
            yield fn(t)

    return ds.sort(key).map_batches(per_block, batch_format="pyarrow", batch_size=None, **map_kwargs)


def sum_merge(keys: list[str], sums: list[str]):
    """Kernel for the exchange's usual merge: group by ``keys`` and sum each
    partial column in ``sums``. Output columns: ``keys``, then ``sums``."""

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([(c, "sum") for c in sums])
        return pa.table({**{k: g[k] for k in keys}, **{c: g[f"{c}_sum"] for c in sums}})

    return merge
