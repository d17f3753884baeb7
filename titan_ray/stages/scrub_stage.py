"""PII/toxicity scrub stage (value-mutating; reference: rr_windcorr.r:199-208
keeps rawvalue and writes the corrected value — here `text` is kept and
`text_scrubbed` is emitted). Applied to EVERY row, dropped rows included, as
the serial oracle does (oracle/serial.py); consumers select survivors by
`keep`.

Vectorized via pyarrow re2 (functions/scrub.scrub_counts_arrow: one match
pass over all rows, the ordered rule chain over the matched rows only);
byte-identical to the oracle's Python-re path for these patterns — verified
on the full corpus; patterns avoid lookarounds and backrefs so re2 and re
agree.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.scrub import scrub_counts_arrow


def scrub_batch(batch: pa.Table) -> pa.Table:
    """Stateless: set text_scrubbed, n_scrub_pii, n_scrub_tox from text."""
    out, n_pii, n_tox = scrub_counts_arrow(batch["text"])
    # n_scrub_pii / n_scrub_tox are the vsigma analog (per-row scrub
    # metadata next to the corrected value, rr_windcorr.r:199-208); clean
    # text costs one regex pass (the rules' alternation), and only the rows
    # it matches run the per-rule count-and-replace chain.
    for name, col in (
        ("text_scrubbed", out),
        ("n_scrub_pii", pa.array(n_pii)),
        ("n_scrub_tox", pa.array(n_tox)),
    ):
        if name in batch.column_names:
            batch = batch.set_column(batch.column_names.index(name), name, [col])
        else:
            batch = batch.append_column(name, [col])
    return batch


class ScrubStage:
    """Callable-class form of ``scrub_batch`` (holds no state)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return scrub_batch(batch)
