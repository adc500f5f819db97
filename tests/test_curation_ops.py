"""Sampling, repetition-signal, PII-scrub, and decontamination operators
(the round-4 curation additions) vs brute-force oracles."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


def _knuth(ids: np.ndarray) -> np.ndarray:
    return (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------
def test_sample_by_rate_matches_brute_force(docs):
    from abwcf_ray.stages.sample import sample_by_rate

    out = sample_by_rate(docs, 0.3).to_pandas()
    df = docs.to_pandas()
    exp = df[_knuth(df["doc_id"].to_numpy()) < 0.3 * 2**32]
    assert sorted(out["doc_id"]) == sorted(exp["doc_id"])
    assert 0 < len(out) < len(df)


def test_sample_by_rate_per_stratum(docs):
    from abwcf_ray.stages.sample import sample_by_rate

    rates = {"en": 0.5, "de": 0.0}
    out = sample_by_rate(docs, rates, strata_col="lang").to_pandas()
    df = docs.to_pandas()
    k = _knuth(df["doc_id"].to_numpy())
    thr = df["lang"].map(rates).fillna(1.0).to_numpy()
    exp = df[k < thr * 2**32]
    assert sorted(out["doc_id"]) == sorted(exp["doc_id"])
    assert (out["lang"] != "de").all()  # rate 0 drops the stratum entirely


def _expected_stratified(df: pd.DataFrame, quota) -> pd.DataFrame:
    df = df.assign(_k=_knuth(df["doc_id"].to_numpy()))
    df = df.sort_values(["lang", "_k", "doc_id"])
    if isinstance(quota, dict):
        return pd.concat(
            [g.head(quota.get(lang, 0)) for lang, g in df.groupby("lang")]
        )
    return df.groupby("lang").head(quota)


def test_stratified_sample_exact_quota(docs):
    from abwcf_ray.stages.sample import stratified_sample

    out = stratified_sample(docs, 7, strata_col="lang").to_pandas()
    exp = _expected_stratified(docs.to_pandas(), 7)
    assert sorted(out["doc_id"]) == sorted(exp["doc_id"])
    assert (out.groupby("lang").size() <= 7).all()
    assert "_skey" not in out.columns


def test_stratified_sample_dict_quota_and_merge_paths(docs):
    """Dict quotas are a whitelist (unlisted strata -> 0 rows), and the
    driver-merge and distributed-merge paths select the identical set."""
    from abwcf_ray.stages.sample import stratified_sample

    quota = {"en": 5, "fr": 2}
    exp = _expected_stratified(docs.to_pandas(), quota)
    small = stratified_sample(docs, quota, strata_col="lang").to_pandas()
    dist = stratified_sample(
        docs, quota, strata_col="lang", driver_merge_max_rows=0
    ).to_pandas()
    assert sorted(small["doc_id"]) == sorted(exp["doc_id"])
    assert sorted(dist["doc_id"]) == sorted(exp["doc_id"])
    assert set(small["lang"]) <= {"en", "fr"}


def test_stratified_sample_block_layout_invariant(docs, ray_session):
    """The selected set must not depend on block boundaries (the property
    the Knuth key buys: deterministic across cluster sizes/layouts)."""
    from abwcf_ray.stages.sample import stratified_sample

    a = stratified_sample(docs.repartition(1), 9, strata_col="lang").to_pandas()
    b = stratified_sample(docs.repartition(13), 9, strata_col="lang").to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])


# --------------------------------------------------------------------------
# mixture replication + chunking
# --------------------------------------------------------------------------
def test_replicate_by_weight_matches_brute_force(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.sample import replicate_by_weight

    df = pd.DataFrame(
        {"doc_id": range(60), "lang": ["en", "de", "fr"] * 20}
    )
    w = {"en": 2.5, "de": 0.5, "fr": 1.0}
    out = replicate_by_weight(rd.from_pandas(df).repartition(4), w).to_pandas()
    key = _knuth(df["doc_id"].to_numpy())
    exp = [
        int(w[r.lang]) + (key[i] < (w[r.lang] - int(w[r.lang])) * 2**32)
        for i, r in enumerate(df.itertuples())
    ]
    got = out.groupby("doc_id").size().reindex(df["doc_id"], fill_value=0)
    assert list(got) == exp
    # epochs are a clean 0..n-1 per doc, and expectation ~= weight
    for d, c in zip(df["doc_id"], exp):
        assert sorted(out[out["doc_id"] == d]["epoch"]) == list(range(c))
    en = out[out["lang"] == "en"]
    assert 2 * 20 <= len(en) <= 3 * 20  # 2.5x in expectation, 2-3 per doc


def test_replicate_layout_invariant(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.sample import replicate_by_weight

    df = pd.DataFrame({"doc_id": range(100), "lang": ["en"] * 100})
    a = replicate_by_weight(rd.from_pandas(df).repartition(1), {"en": 1.5}).to_pandas()
    b = replicate_by_weight(rd.from_pandas(df).repartition(9), {"en": 1.5}).to_pandas()
    assert sorted(zip(a["doc_id"], a["epoch"])) == sorted(zip(b["doc_id"], b["epoch"]))


def test_chunk_documents_matches_brute_force(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.packing import chunk_documents

    texts = [
        "a b c d e f g",
        "x y",
        "",
        "   \t ",
        "one two three four five six",
        "solo",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = (
        chunk_documents(rd.from_pandas(df).repartition(3), chunk_tokens=3)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    exp = []
    for r in df.itertuples():
        ws = re.findall(r"\S+", r.text)
        for j in range((len(ws) + 2) // 3):
            seg = ws[j * 3 : (j + 1) * 3]
            exp.append((r.doc_id, j, " ".join(seg), len(seg)))
    expdf = pd.DataFrame(
        exp, columns=["doc_id", "chunk_id", "chunk_text", "n_tokens"]
    )
    pd.testing.assert_frame_equal(out, expdf, check_dtype=False)


def test_chunk_documents_token_conservation(docs):
    """Every token of every doc lands in exactly one chunk, in order."""
    from abwcf_ray.stages.packing import chunk_documents

    out = chunk_documents(docs, chunk_tokens=16).to_pandas()
    df = docs.to_pandas()
    rebuilt = (
        out.sort_values(["doc_id", "chunk_id"])
        .groupby("doc_id")["chunk_text"]
        .agg(" ".join)
    )
    for r in df.itertuples():
        norm = " ".join(re.findall(r"\S+", r.text))
        if norm:
            assert rebuilt[r.doc_id] == norm
        else:
            assert r.doc_id not in rebuilt.index
    assert (out["n_tokens"] >= 1).all() and (out["n_tokens"] <= 16).all()


# --------------------------------------------------------------------------
# repetition signals
# --------------------------------------------------------------------------
def _brute_repetition(text: str) -> tuple[int, float, float, float]:
    ws = re.findall(r"\S+", text)
    n = len(ws)
    from collections import Counter

    wc = Counter(ws)
    bc = Counter(" ".join(p) for p in zip(ws, ws[1:]))
    mx = max(wc.values(), default=0)
    dup = sum(c for c in wc.values() if c > 1)
    bmx = max(bc.values(), default=0)
    return n, mx / max(n, 1), dup / max(n, 1), bmx / max(n - 1, 1)


def test_repetition_signals_match_brute_force(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.text import add_repetition_signals

    texts = [
        "a a a a",  # all-duplicate degenerate
        "x y x y x y",  # dominant bigram
        "unique words only here",
        "one",  # single word: no bigrams
        "",  # empty
        "tok",
    ]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
    out = (
        ds.map_batches(add_repetition_signals, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
    )
    for _, row in out.iterrows():
        n, twf, dwf, tbf = _brute_repetition(texts[int(row["doc_id"])])
        assert row["n_words"] == n
        assert row["top_word_frac"] == pytest.approx(twf, abs=0)
        assert row["dup_word_frac"] == pytest.approx(dwf, abs=0)
        assert row["top_bigram_frac"] == pytest.approx(tbf, abs=0)


def test_repetition_signals_on_fixture(docs):
    from abwcf_ray.stages.text import add_repetition_signals

    out = docs.map_batches(add_repetition_signals, batch_format="pyarrow").to_pandas()
    assert ((out["top_word_frac"] > 0) & (out["top_word_frac"] <= 1)).all()
    assert (out["dup_word_frac"] <= 1).all()
    # the fixture's small vocab guarantees repetition somewhere
    assert (out["dup_word_frac"] > 0).any()


# --------------------------------------------------------------------------
# PII scrub
# --------------------------------------------------------------------------
def test_scrub_pii_matches_re_sub(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.text import PII_EMAIL_RE, PII_PHONE_RE, scrub_pii

    texts = [
        "write to alice.smith+tag@sub.example.org today",
        "call +44-207-9460123 or +1-555-0100",
        "both bob@x.io and +33-123-456789 here",
        "no pii at all",
        "not-an-email@ and +1-55-123 stay",  # below the patterns' thresholds
    ]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
    out = ds.map_batches(scrub_pii, batch_format="pyarrow").to_pandas()
    for _, row in out.sort_values("doc_id").iterrows():
        t = texts[int(row["doc_id"])]
        exp_emails = len(re.findall(PII_EMAIL_RE, t))
        clean = re.sub(PII_EMAIL_RE, "<EMAIL>", t)
        exp_phones = len(re.findall(PII_PHONE_RE, clean))
        clean = re.sub(PII_PHONE_RE, "<PHONE>", clean)
        assert row["text_clean"] == clean
        assert row["n_emails"] == exp_emails
        assert row["n_phones"] == exp_phones
    assert out["n_emails"].dtype == np.int64 and out["n_phones"].dtype == np.int64


# --------------------------------------------------------------------------
# decontamination
# --------------------------------------------------------------------------
def test_decontaminate_planted_overlaps(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.decontam import decontaminate

    bench = ["the quick brown fox jumps over the dog"]
    corpus = [
        "the quick brown fox jumps elsewhere",  # shares 'the quick brown fox'
        "quick brown fox sleeps all day long here",  # no full 4-gram overlap
        "totally unrelated text about ray data pipelines",
        "prefix words then the quick brown fox jumps",  # overlap mid-doc
        "",  # empty doc: no grams, never contaminated
    ]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(corpus)), "text": corpus}))
    out = (
        decontaminate(ds, bench, k=4).to_pandas().sort_values("doc_id")
    )
    assert out["contaminated"].tolist() == [True, False, False, True, False]
    assert out["n_grams"].tolist() == [3, 5, 4, 5, 0]  # n_tokens - k + 1, distinct


def test_decontaminate_short_doc_rule(ray_session):
    """Docs with 1 <= n_tokens < k form ONE gram over all tokens — they are
    contaminated iff the benchmark contains that exact short sequence
    (mirrors the shingle kernel's short-doc rule and the SQL oracle)."""
    import ray.data as rd

    from abwcf_ray.stages.decontam import decontaminate

    bench = ["tiny doc"]
    corpus = ["tiny doc", "tiny", "tiny doc here"]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(3), "text": corpus}))
    out = decontaminate(ds, bench, k=13).to_pandas().sort_values("doc_id")
    assert out["contaminated"].tolist() == [True, False, False]


def test_curate_full_matches_brute_force(docs):
    """The composed pipeline (quality -> repetition -> decontam -> dedup ->
    stratified sample) vs a pure-Python re-derivation on the fixture."""
    from collections import Counter

    from abwcf_ray.pipelines.curate import curate_full

    df = docs.to_pandas()

    def grams(text: str, k: int = 4) -> set:
        ws = re.findall(r"\S+", text or "")
        if len(ws) >= k:
            return {tuple(ws[i : i + k]) for i in range(len(ws) - k + 1)}
        return {tuple(ws)} if ws else set()

    bench_rows = df[df["doc_id"] % 20 == 0]
    bench_set = set().union(*[grams(t) for t in bench_rows["text"]])

    survivors = []
    for r in df.itertuples():
        ws = re.findall(r"\S+", r.text)
        n_alpha = len(re.findall(r"[A-Za-zÀ-ÿ]", r.text))
        if not (5 <= len(ws) <= 100_000 and 2 * n_alpha >= len(r.text)):
            continue
        if max(Counter(ws).values(), default=0) * 8 > len(ws):
            continue
        if grams(r.text) & bench_set:
            continue
        survivors.append(r)
    by_text: dict = {}
    for r in survivors:
        cur = by_text.setdefault(r.text, [r.doc_id, r.lang, 0])
        cur[2] += 1
        if r.doc_id < cur[0]:
            cur[0], cur[1] = r.doc_id, r.lang
    reps = pd.DataFrame(by_text.values(), columns=["doc_id", "lang", "dup_count"])
    reps["_k"] = _knuth(reps["doc_id"].to_numpy())
    exp = reps.sort_values(["lang", "_k", "doc_id"]).groupby("lang").head(3)

    out = curate_full(
        docs, bench_rows["text"].tolist(), decontam_k=4, quota=3
    ).to_pandas()
    got = out.sort_values("doc_id").reset_index(drop=True)
    exps = exp[["doc_id", "lang", "dup_count"]].sort_values("doc_id").reset_index(
        drop=True
    )
    pd.testing.assert_frame_equal(
        got[["doc_id", "lang", "dup_count"]], exps, check_dtype=False
    )


def test_decontaminate_brute_force_on_fixture(docs):
    """Clean set parity against pure-Python token-window sets at k=4 with
    the doc_id%20 benchmark slice (the __ray_entry__ query's shape)."""
    from abwcf_ray.stages.decontam import decontaminate

    df = docs.to_pandas()

    def grams(text: str, k: int = 4) -> set:
        ws = re.findall(r"\S+", text or "")
        if len(ws) >= k:
            return {tuple(ws[i : i + k]) for i in range(len(ws) - k + 1)}
        return {tuple(ws)} if ws else set()

    bench_rows = df[df["doc_id"] % 20 == 0]
    bench_set = set().union(*[grams(t) for t in bench_rows["text"]]) if len(
        bench_rows
    ) else set()
    exp_clean = {
        int(r.doc_id) for r in df.itertuples() if not (grams(r.text) & bench_set)
    }
    out = decontaminate(docs, bench_rows["text"].tolist(), k=4).to_pandas()
    got_clean = set(out[~out["contaminated"]]["doc_id"].astype(int))
    assert got_clean == exp_clean
    assert len(got_clean) < len(df)  # non-degenerate: something was flagged


def _brute_gopher(text: str):
    ws = re.findall(r"\S+", text)
    n = len(ws)
    d = max(n, 1)
    mean_wl = sum(len(w) for w in ws) / d
    sym = text.count("#") + text.count("...") + text.count("…")
    alpha = sum(1 for w in ws if re.search("[A-Za-z]", w)) / d
    hits = sum(
        1
        for sw in ("the", "be", "to", "of", "and", "that", "have", "with")
        if sw in {w.lower() for w in ws}
    )
    lines = text.split("\n")
    nl = max(len(lines), 1)
    bullets = sum(1 for l in lines if re.match(r"[-*•]", l)) / nl
    ells = sum(1 for l in lines if re.search(r"(\.\.\.|…)$", l)) / nl
    return n, mean_wl, sym / d, alpha, hits, bullets, ells


def test_gopher_rules_match_brute_force(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.text import add_gopher_rules

    texts = [
        "the cat sat on the mat with a hat to be sure",
        "#### symbols ... everywhere … #tag ....",
        "- bullet one\n* bullet two\nplain line\nends with …",
        "12345 67890 !!! ???",  # no alpha words
        "",  # empty
        "word",
        "have with THE To",  # case-insensitive stopwords
    ]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
    out = (
        ds.map_batches(add_gopher_rules, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
    )
    for _, row in out.iterrows():
        n, mwl, swr, awf, hits, blf, elf = _brute_gopher(texts[int(row["doc_id"])])
        assert row["n_words"] == n
        assert row["mean_word_len"] == pytest.approx(mwl, abs=0)
        assert row["symbol_word_ratio"] == pytest.approx(swr, abs=0)
        assert row["alpha_word_frac"] == pytest.approx(awf, abs=0)
        assert row["stopword_hits"] == hits
        assert row["bullet_line_frac"] == pytest.approx(blf, abs=0)
        assert row["ellipsis_line_frac"] == pytest.approx(elf, abs=0)


def test_gopher_pass_bounds(ray_session):
    import ray.data as rd

    from abwcf_ray.stages.text import add_gopher_rules

    # 60 normal words incl. two stopwords -> passes every bound
    good = " ".join(["alpha"] * 58) + " the with"
    # same but word count below 50 -> fails the length bound only
    short = " ".join(["alpha"] * 10) + " the with"
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [0, 1], "text": [good, short]}))
    out = (
        ds.map_batches(add_gopher_rules, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["gopher_pass"].tolist() == [1, 0]


def test_compression_ratio_differential(ray_session):
    import zlib

    import ray.data as rd

    from abwcf_ray.stages.text import add_compression_ratio

    rng = np.random.default_rng(8)
    texts = [
        "spam spam spam " * 50,     # highly repetitive -> low ratio
        " ".join(
            "the quick brown fox jumps over one of fifty lazy dogs".split()[
                int(j) % 11
            ]
            for j in rng.integers(0, 11, 200)
        ),                          # ordinary prose-like redundancy
        rng.bytes(400).hex(),       # high-entropy, no repetition
        "",
    ]
    df = pd.DataFrame({"doc_id": range(4), "text": texts})
    out = (
        rd.from_pandas(df)
        .map_batches(add_compression_ratio, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for i, t in enumerate(texts):
        b = t.encode("utf-8")
        exp = len(zlib.compress(b, 6)) / len(b) if b else 0.0
        assert out.loc[i, "compression_ratio"] == exp
        assert out.loc[i, "n_bytes"] == len(b)
    assert out.loc[0, "compression_ratio"] < out.loc[1, "compression_ratio"]
    assert out.loc[1, "compression_ratio"] < out.loc[2, "compression_ratio"]


# ---------------------------------------------------------------- pack_bins


def _pack_brute(df, W):
    """Sequential reference: concat tokens in doc_id order, split every W."""
    rows = []
    off = 0
    for _, r in df.sort_values("doc_id").iterrows():
        n = len(r["text"].split())
        if n:
            for b in range(off // W, (off + n - 1) // W + 1):
                tok = min(off + n, (b + 1) * W) - max(off, b * W)
                rows.append((b, r["doc_id"], tok))
        off += n
    import pandas as pd

    return pd.DataFrame(rows, columns=["bin_id", "doc_id", "n_in_bin"])


def test_pack_bins_matches_sequential_reference(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from abwcf_ray.stages.packing import pack_bins

    rng = np.random.default_rng(21)
    texts = [
        " ".join(f"t{j}" for j in range(rng.integers(0, 40)))
        for _ in range(300)
    ]
    # non-contiguous, shuffled ids exercise the range bucketing
    ids = rng.permutation(np.arange(0, 3000, 10))[:300]
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    out = (
        pack_bins(
            rd.from_pandas(df).repartition(7),
            window=64,
            buckets=16,
            merge_partitions=4,
        )
        .to_pandas()
        .sort_values(["bin_id", "doc_id"])
        .reset_index(drop=True)
    )
    exp = (
        _pack_brute(df, 64)
        .sort_values(["bin_id", "doc_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp)
    # conservation: every token lands in exactly one bin
    assert out["n_in_bin"].sum() == sum(len(t.split()) for t in texts)
    # every bin except the last is exactly full
    per_bin = out.groupby("bin_id")["n_in_bin"].sum()
    assert (per_bin.iloc[:-1] == 64).all()


def test_pack_bins_layout_invariance(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from abwcf_ray.stages.packing import pack_bins

    df = pd.DataFrame(
        {
            "doc_id": np.arange(50),
            "text": ["x " * (i % 13) for i in range(50)],
        }
    )
    a = (
        pack_bins(rd.from_pandas(df).repartition(2), window=10, buckets=4)
        .to_pandas()
        .sort_values(["bin_id", "doc_id"])
        .reset_index(drop=True)
    )
    b = (
        pack_bins(
            rd.from_pandas(df.iloc[::-1].reset_index(drop=True)).repartition(9),
            window=10,
            buckets=64,
        )
        .to_pandas()
        .sort_values(["bin_id", "doc_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_pack_bins_doc_spanning_many_bins(ray_session):
    import pandas as pd
    import ray.data as rd

    from abwcf_ray.stages.packing import pack_bins

    df = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["a b c", "w " * 25, ""]}
    )
    out = (
        pack_bins(rd.from_pandas(df), window=8, buckets=2)
        .to_pandas()
        .sort_values(["bin_id", "doc_id"])
        .reset_index(drop=True)
    )
    # doc 1: 3 tokens in bin 0; doc 2: 25 tokens at offset 3 -> bins 0..3
    # (5, 8, 8, 4); doc 3: empty, absent
    assert out.to_records(index=False).tolist() == [
        (0, 1, 3),
        (0, 2, 5),
        (1, 2, 8),
        (2, 2, 8),
        (3, 2, 4),
    ]
    assert 3 not in set(out["doc_id"])


def test_pack_bins_full_range_int64_ids(ray_session):
    """Full-int64-span doc ids (hash64(url)-style, negative lows) must
    bucket without signed overflow — ADVICE r4 high: the old int64
    offset arithmetic wrapped negative past a 2^63 span and wrap-indexed
    the base array, corrupting bin assignments."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from abwcf_ray.stages.packing import pack_bins

    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 40
        ids = rng.integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, dtype=np.int64
        )
        ids = np.unique(ids)
        # pin the extremes so the span genuinely exceeds 2^63
        ids[0] = np.iinfo(np.int64).min + 1
        ids[-1] = np.iinfo(np.int64).max - 1
        texts = [
            " ".join("w" for _ in range(int(rng.integers(0, 20))))
            for _ in range(len(ids))
        ]
        df = pd.DataFrame({"doc_id": ids, "text": texts})
        out = (
            pack_bins(
                rd.from_pandas(df).repartition(5),
                window=16,
                buckets=8,
                merge_partitions=3,
            )
            .to_pandas()
            .sort_values(["bin_id", "doc_id"])
            .reset_index(drop=True)
        )
        exp = (
            _pack_brute(df, 16)
            .sort_values(["bin_id", "doc_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, exp)


def test_pack_bins_empty_input(ray_session):
    """ADVICE r4 low: empty dataset (quality gate removed everything)
    must yield an empty typed result, not int(None) TypeError."""
    import pandas as pd
    import ray.data as rd

    from abwcf_ray.stages.packing import pack_bins

    df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                       "text": pd.Series([], dtype="string")})
    out = pack_bins(rd.from_pandas(df), window=8).to_pandas()
    assert len(out) == 0
    # Ray drops the schema of zero-row datasets on to_pandas; when columns
    # do survive they must be the contract triple
    if len(out.columns):
        assert list(out.columns) == ["bin_id", "doc_id", "n_in_bin"]


def test_pack_bins_hypothesis_differential(ray_session):
    """Randomized differential vs the sequential reference: adversarial
    windows (1, 3, 64), empty docs, sparse/shuffled ids, skewed token
    counts across many layouts."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from abwcf_ray.stages.packing import pack_bins

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        window=st.sampled_from([1, 3, 64]),
        buckets=st.sampled_from([1, 4, 32]),
        blocks=st.integers(1, 6),
    )
    def inner(seed, window, buckets, blocks):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        ids = rng.choice(np.arange(0, 10_000, 7), n, replace=False)
        texts = [
            " ".join("w" for _ in range(int(rng.integers(0, 20))))
            for _ in range(n)
        ]
        df = pd.DataFrame({"doc_id": ids, "text": texts})
        out = pack_bins(
            rd.from_pandas(df).repartition(blocks),
            window=window,
            buckets=buckets,
            merge_partitions=3,
        ).to_pandas()
        exp = _pack_brute(df, window)
        if out.empty:
            # every doc drew zero tokens: Ray drops the schema of a
            # zero-row result on to_pandas (see test_pack_bins_empty_input)
            assert exp.empty
            return
        key = ["bin_id", "doc_id"]
        pd.testing.assert_frame_equal(
            out.sort_values(key).reset_index(drop=True),
            exp.sort_values(key).reset_index(drop=True),
        )

    inner()
