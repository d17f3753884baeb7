"""Ordered regex PII/toxicity scrub — the value-MUTATING transform.

Analog of the reference's wind-undercatch correction, the one stage that
rewrites `value` instead of only flagging (reference:
functions/windcorr/rr_windcorr.r:199-208 writes corrected value, keeps
rawvalue). Here: `text_scrubbed` is produced from `text` (kept intact) by a
DETERMINISTIC ordered list of regex substitutions, so per-turn scrubbed-text
equality vs the serial oracle is exact (BASELINE.json north_rule).

Patterns are kept RE2-compatible (no lookarounds/backrefs) so the same
pattern strings run identically under DuckDB's regexp_replace for the SQL
oracle (__ray_entry__.oracle_sql).
"""

from __future__ import annotations

import re

# (name, pattern, replacement) — applied IN ORDER. Order matters: e.g. the
# email rule must run before the generic digit rules would mangle domains.
SCRUB_RULES: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
    ("ssn", r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b", "[SSN]"),
    ("credit_card", r"\b[0-9]{4}[ -][0-9]{4}[ -][0-9]{4}[ -][0-9]{4}\b", "[CARD]"),
    # hyphen LAST inside the class = literal ('[ -.]' would be the RANGE
    # 0x20-0x2E and also match !"#$%&'()*+,)
    ("phone", r"(?:\+[0-9]{1,3}[ .-])?\(?[0-9]{3}\)?[ .-][0-9]{3}[ .-][0-9]{4}\b", "[PHONE]"),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "[IP]"),
    ("api_key", r"\b(?:sk|pk|ak)-[A-Za-z0-9]{16,}\b", "[KEY]"),
    # URLs after email (an email's domain must not first become part of a
    # URL match) — RE2-safe class, no lookarounds
    ("url", r"https?://[^\s\"'<>]+", "[URL]"),
)

# Toxicity lexicon (mild placeholder terms — the mechanism, not a full list).
TOXICITY_TERMS: tuple[str, ...] = ("frakking", "shazbot", "gorram", "smegging")
_TOX_PATTERN = r"\b(?:" + "|".join(TOXICITY_TERMS) + r")\b"
SCRUB_RULES = SCRUB_RULES + (("toxicity", _TOX_PATTERN, "[TOX]"),)

# Blacklist terms: rows CONTAINING these are flagged 999 outright
# (reference blacklist semantics, read_data_to_check.r:94-119) — contrast
# with scrub terms, which rewrite but keep the row.
BLACKLIST_TERMS: tuple[str, ...] = ("BLOCKLISTED_TOKEN", "DO_NOT_TRAIN")


# rule name -> class for the per-row substitution-count metadata (the
# reference's vsigma analog: rr_windcorr.r:199-208 keeps a per-row
# correction uncertainty next to the corrected value; here each row carries
# how many PII and how many toxicity substitutions produced text_scrubbed)
def rule_class(name: str) -> str:
    return "tox" if name == "toxicity" else "pii"


# one regex that matches a text iff some rule does: rows it misses pass
# every rule of the chain unchanged
_ANY_RULE = "|".join(f"(?:{pat})" for _name, pat, _repl in SCRUB_RULES)


def scrub_counts_arrow(text_col):
    """Vectorized scrub WITH per-rule-class substitution counts:
    (scrubbed StringArray, n_pii int32, n_tox int32). One
    match_substring_regex pass of the rules' alternation picks the
    candidate rows (typically a few percent); a row no rule matches is left
    unchanged by every replace, as rule k only sees the output of rules
    before it. The ordered count-and-replace chain runs on the candidates
    only, and its output is scattered back. A candidate whose chain returns
    its text unchanged counts 0 substitutions."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    n = len(text_col)
    n_pii = np.zeros(n, dtype=np.int32)
    n_tox = np.zeros(n, dtype=np.int32)
    hit = pc.fill_null(pc.match_substring_regex(text_col, _ANY_RULE), False)
    idx = np.flatnonzero(hit.to_numpy(zero_copy_only=False))
    if not len(idx):
        return text_col, n_pii, n_tox
    orig = text_col.take(pa.array(idx))
    cur = orig
    pii_sub = np.zeros(len(idx), dtype=np.int64)
    tox_sub = np.zeros(len(idx), dtype=np.int64)
    for name, pat, repl in SCRUB_RULES:
        cnt = pc.count_substring_regex(cur, pat).to_numpy(zero_copy_only=False)
        if rule_class(name) == "tox":
            tox_sub += cnt
        else:
            pii_sub += cnt
        cur = pc.replace_substring_regex(cur, pat, repl)
    changed = pc.not_equal(cur, orig).to_numpy(zero_copy_only=False)
    n_pii[idx] = np.where(changed, pii_sub, 0).astype(np.int32)
    n_tox[idx] = np.where(changed, tox_sub, 0).astype(np.int32)
    return pc.replace_with_mask(text_col, hit, cur), n_pii, n_tox


class Scrubber:
    """Compile once (per actor), apply vectorized per batch."""

    def __init__(self, rules: tuple[tuple[str, str, str], ...] = SCRUB_RULES):
        self.rules = [(name, re.compile(pat), repl) for name, pat, repl in rules]

    def scrub_one(self, text: str | None) -> str | None:
        if text is None:
            return None
        for _, pat, repl in self.rules:
            text = pat.sub(repl, text)
        return text

    def scrub_one_with_counts(self, text: str | None) -> tuple[str | None, int, int]:
        """(scrubbed, n_pii, n_tox) — the serial-oracle mirror of
        scrub_counts_arrow (Python re and re2 agree on these patterns)."""
        if text is None:
            return None, 0, 0
        n_pii = n_tox = 0
        for name, pat, repl in self.rules:
            text, k = pat.subn(repl, text)
            if rule_class(name) == "tox":
                n_tox += k
            else:
                n_pii += k
        return text, n_pii, n_tox

    def scrub_pandas(self, series):
        """Apply all rules over a pandas string Series (C-looped re engine)."""
        out = series
        for _, pat, repl in self.rules:
            out = out.str.replace(pat, repl, regex=True)
        return out


def blacklist_mask_pandas(series):
    """Boolean Series: text contains any blacklist term (code 999 analog)."""
    pat = "|".join(re.escape(t) for t in BLACKLIST_TERMS)
    return series.str.contains(pat, regex=True, na=False)
