"""The flagship text kernels equal, bit for bit, their frozen pre-rewrite
copies in tests/frozen_kernels.py: dedup normalization, the scrub with its
counts, the char-LM log-probs and perplexity, langid and the repetition
ratio (alone and as compute_core_features shares their hashes)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import frozen_kernels as fk
from titan_ray.corpus import generate_corpus
from titan_ray.functions import langid
from titan_ray.functions.features import compute_core_features
from titan_ray.functions.lm import default_lm
from titan_ray.functions.scrub import scrub_counts_arrow
from titan_ray.functions.strings import collapse_whitespace, distinct_window_ratio, string_view
from titan_ray.stages.dedup import _normalize_arrow

LONG = " ".join(["the quick brown fox jumps over the lazy dog"] * 20)  # > MAX_BYTES

ADVERSARIAL = [
    "", None, "a", "ab", "abc", "x" * 700, LONG, LONG.upper(),
    "a\x0bb", "a\x0b\x0b b", "\x0c\x0c", "x\x0c \x0cy", "x\u0085  y", "x  y",
    " lead and trail ", "\x0bvt\x0b", "日本語  テキスト\t\tです", "Ω　Ω",
    " \t\n\r\x0c lead", "trail \t\r\n", "MiXeD\r\n\r\nCaSe  \t WoRdS", "\t", "  ", "\n", None,
    "mail a@b.co or call 555-123-4567 at 10.0.0.1", "ssn 123-45-6789 card 4111 1111 1111 1111",
    "key sk-ABCDEFGHIJKLMNOPQR then frakking http://x.y/z?q=1", "+1 (555) 123-4567",
    "[EMAIL] [PHONE] [TOX]", "gorram\nshazbot", "éé", "É", "ÀÉÎÕÜ  ÇÑ",
]


def _adversarial() -> pa.Array:
    return pa.array(ADVERSARIAL, type=pa.string())


@pytest.fixture(scope="module")
def scattered():
    t = generate_corpus(20000, seed=1)
    return t["text"].take(pa.array(np.random.default_rng(1).permutation(t.num_rows))).combine_chunks()


@pytest.fixture(scope="module")
def inputs(small_corpus, scattered):
    small = small_corpus["text"].combine_chunks()
    adv = _adversarial()
    return {
        "small_corpus": small,
        "scattered_20k": scattered,
        "adversarial": adv,
        "sliced": small.slice(37, 1500),
        "sliced_adversarial": adv.slice(3, len(adv) - 5),
        "large_string": pc.cast(small.slice(11, 900), pa.large_string()),
        "large_adversarial": pc.cast(adv, pa.large_string()),
        "chunked": pa.chunked_array([adv, small.slice(100, 700), adv.slice(1, 4)]),
    }


CASES = ["small_corpus", "scattered_20k", "adversarial", "sliced", "sliced_adversarial",
         "large_string", "large_adversarial", "chunked"]


def _flat(x):
    return x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x


@pytest.mark.parametrize("case", CASES)
def test_normalize_bitwise(inputs, case):
    x = inputs[case]
    new, old = _normalize_arrow(x), fk.normalize(x)
    assert pa.array(new, pa.string()).equals(pa.array(old, pa.string()))


@pytest.mark.parametrize("case", CASES)
def test_collapse_whitespace_is_re2(inputs, case):
    x = inputs[case]
    want = pc.replace_substring_regex(_flat(x), r"\s+", " ")
    got = collapse_whitespace(x)
    assert got.type == want.type and got.equals(want)


@pytest.mark.parametrize("case", CASES)
def test_scrub_bitwise(inputs, case):
    x = inputs[case]
    out, n_pii, n_tox = scrub_counts_arrow(x)
    ref_out, ref_pii, ref_tox = fk.scrub_counts(x)
    assert out.type == ref_out.type and out.equals(ref_out)
    assert np.array_equal(n_pii, ref_pii) and n_pii.dtype == ref_pii.dtype
    assert np.array_equal(n_tox, ref_tox) and n_tox.dtype == ref_tox.dtype


@pytest.mark.parametrize("case", CASES)
def test_lm_bitwise(inputs, case):
    lm = default_lm()
    x = inputs[case]
    assert np.array_equal(lm.perplexity(x), fk.perplexity(lm, x))
    data = string_view(pc.utf8_lower(_flat(x)))[0]
    new, old = lm.logprobs(data), fk.lm_logprobs(lm, data)
    assert new.dtype == old.dtype == np.float32 and np.array_equal(new, old)


@pytest.mark.parametrize("case", CASES)
def test_langid_and_repetition_bitwise(inputs, case):
    x = inputs[case]
    lang, conf = langid.detect(x)
    ref_lang, ref_conf = fk.langid_detect(x)
    assert np.array_equal(lang, ref_lang) and np.array_equal(conf, ref_conf)
    data, offsets, _ = string_view(_flat(x))
    ref_rep = fk.distinct_window_ratio(data, offsets, 4)
    assert np.array_equal(distinct_window_ratio(data, offsets, 4), ref_rep)
    feats = compute_core_features(x, default_lm())
    assert np.array_equal(feats["lang"], ref_lang) and np.array_equal(feats["lang_conf"], ref_conf)
    assert np.array_equal(feats["rep_ratio"], ref_rep)
    assert np.array_equal(feats["ppl"], fk.perplexity(default_lm(), x))


def test_perplexity_list_input_equals_arrow():
    """Non-Arrow input is coerced with pa.array(..., pa.string()) and
    lowered by the same utf8_lower as Arrow input."""
    lm = default_lm()
    texts = list(ADVERSARIAL)
    assert np.array_equal(lm.perplexity(texts), lm.perplexity(_adversarial()))
    assert np.array_equal(lm.perplexity(iter(texts)), lm.perplexity(_adversarial()))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_straddle_windows_brute_force(n):
    """straddle_windows lists exactly the length-n windows that are not
    inside one row, with empty and short rows in the mix."""
    from titan_ray.functions.strings import straddle_windows

    lengths = np.array([0, 1, 2, 5, 0, 3, 1, 7, 2, 0])
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    size = int(offsets[-1]) - n + 1
    row = np.repeat(np.arange(len(lengths)), lengths)
    want = [p for p in range(size) if row[p] != row[p + n - 1]]
    assert sorted(set(straddle_windows(offsets, n, size).tolist())) == want
