import json
from itertools import combinations

import numpy as np
import pytest

from xtf.filtering import (
    ATTRIBUTES,
    FilterConfig,
    NoiseMask,
    apply_filters,
    complementarity_report,
    filter_kn,
    filter_ri,
    filter_tr,
    histogram_rows,
    load_masks,
    multi_otsu,
    otsu_classify,
    quantile,
    save_masks,
    save_stats,
    union_mask,
)
from xtf.model import InputError
from xtf.scoring import TokenScores


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def otsu_oracle(values, k, bins):
    """Independent exhaustive search: per tuple, slice the raw histogram and
    compute class stats directly (no prefix sums). Shares the roundoff-band
    tie rule: lexicographically first within 1e-12 relative of the max."""
    arr = np.asarray(values, dtype=np.float64)
    vmin, vmax = arr.min(), arr.max()
    if vmin == vmax:
        return None, 0.0
    counts, edges = np.histogram(arr, bins=bins, range=(vmin, vmax))
    centers = (edges[:-1] + edges[1:]) / 2.0
    total = counts.sum()
    mu_total = float((counts * centers).sum() / total)

    def sigma_of(cuts):
        bounds = [0] + [c + 1 for c in cuts] + [bins]
        sigma = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            n_class = counts[lo:hi].sum()
            if n_class == 0:
                continue
            w = n_class / total
            mu = float((counts[lo:hi] * centers[lo:hi]).sum() / n_class)
            sigma += w * (mu - mu_total) ** 2
        return sigma

    sigmas = {cuts: sigma_of(cuts) for cuts in combinations(range(bins - 1), k - 1)}
    best = max(sigmas.values())
    tol = 1e-12 * max(1.0, best)
    for cuts, sigma in sigmas.items():
        if sigma >= best - tol:
            return tuple(float(edges[c + 1]) for c in cuts), sigma
    raise AssertionError("unreachable")


def classic_otsu_oracle(values, bins):
    """Single-threshold Otsu via the two-class between-variance formula."""
    arr = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(arr, bins=bins, range=(arr.min(), arr.max()))
    centers = (edges[:-1] + edges[1:]) / 2.0
    p = counts / counts.sum()

    def sigma_of(t):
        w0 = p[: t + 1].sum()
        w1 = p[t + 1 :].sum()
        if w0 == 0 or w1 == 0:
            return 0.0
        mu0 = (p[: t + 1] * centers[: t + 1]).sum() / w0
        mu1 = (p[t + 1 :] * centers[t + 1 :]).sum() / w1
        return w0 * w1 * (mu1 - mu0) ** 2

    sigmas = [sigma_of(t) for t in range(bins - 1)]
    best = max(sigmas)
    tol = 1e-12 * max(1.0, best)
    for t, sigma in enumerate(sigmas):
        if sigma >= best - tol:
            return float(edges[t + 1]), sigma
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# quantiles and the RI fence
# ---------------------------------------------------------------------------


def test_quantile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    for _ in range(50):
        arr = rng.normal(size=int(rng.integers(1, 40)))
        for q in (0.0, 25.0, 50.0, 75.0, 100.0, 33.3):
            assert quantile(arr, q) == pytest.approx(
                np.percentile(arr, q, method="linear"), rel=1e-12, abs=1e-12
            )


def test_filter_ri_all_equal_filters_nothing():
    assert filter_ri([0.4, 0.4, 0.4, 0.4]) == set()
    assert filter_ri([0.4]) == set()


def test_filter_ri_literal_case():
    # sorted [0, 1, 1, 1, 1]: Q1 = Q3 = 1, fence = 1, only index 0 below
    assert filter_ri([0.0, 1.0, 1.0, 1.0, 1.0]) == {0}


def test_filter_ri_affine_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        scores = rng.normal(size=int(rng.integers(2, 30)))
        assert filter_ri(scores) == filter_ri(5.0 * scores + 2.0)


def test_filter_kn_boundary_literals():
    assert filter_kn([0.04]) == {0}
    assert filter_kn([0.05]) == set()
    assert filter_kn([1.0]) == set()


def test_filter_kn_is_per_token():
    # concatenating sentences never changes a token's decision
    a = [0.01, 0.5]
    b = [0.6, 0.02]
    joint = filter_kn(a + b)
    assert joint == filter_kn(a) | {k + len(a) for k in filter_kn(b)}


def test_filter_kn_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        filter_kn([0.5], cutoff=0.0)


# ---------------------------------------------------------------------------
# multi-Otsu
# ---------------------------------------------------------------------------


def test_multi_otsu_degenerate_sentinel():
    result = multi_otsu(np.full(50, 0.7), k=3, bins=64)
    assert result.thresholds is None


def test_multi_otsu_trimodal_thresholds_between_clusters():
    values = np.concatenate([np.full(100, 0.1), np.full(100, 0.5), np.full(100, 0.9)])
    result = multi_otsu(values, k=3, bins=256)
    t1, t2 = result.thresholds
    assert 0.1 < t1 < 0.5 < t2 < 0.9


def test_multi_otsu_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    cases = []
    for trial in range(40):
        k = 2 if trial % 2 == 0 else 3
        bins = int(rng.integers(8, 65))
        cases.append((k, bins, rng.normal(size=int(rng.integers(20, 200)))))
    # the production shape: 256 bins, and a pool rounded to 0.01 whose
    # values fall on a coarse grid, leaving most bins empty
    cases.append((2, 256, rng.normal(size=300)))
    cases.append((3, 256, rng.normal(size=300)))
    cases.append((3, 256, np.round(rng.uniform(size=2000), 2)))
    # four evenly spaced values: several set partitions tie up to roundoff,
    # and only the first tuple within the tie band is the right answer
    cases.append((3, 256, np.array([0.0, 0.1, 0.2, 0.3])))
    for k, bins, values in cases:
        got = multi_otsu(values, k=k, bins=bins)
        want_thr, want_sigma = otsu_oracle(values, k, bins)
        assert got.thresholds == want_thr
        assert got.between_var == pytest.approx(want_sigma, abs=1e-12)


def test_multi_otsu_k2_equals_classic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = np.concatenate(
            [rng.normal(-2.0, 0.4, size=60), rng.normal(2.0, 0.4, size=40)]
        )
        got = multi_otsu(values, k=2, bins=64)
        thr, sigma = classic_otsu_oracle(values, 64)
        assert got.thresholds == (thr,)
        assert got.between_var == pytest.approx(sigma, abs=1e-12)


def test_multi_otsu_rejects_empty():
    with pytest.raises(ValueError):
        multi_otsu(np.array([]), k=3)


def test_otsu_classify_threshold_boundary():
    classes = otsu_classify([0.1, 0.5, 0.9], thresholds=[0.5])
    np.testing.assert_array_equal(classes, [0, 1, 1])  # value at threshold goes up


# ---------------------------------------------------------------------------
# TR filter over a pooled dataset
# ---------------------------------------------------------------------------


def test_filter_tr_degenerate_pool_flags_nothing():
    per_example = [("a", np.ones(4)), ("b", np.ones(3))]
    flagged, result, _ = filter_tr(per_example)
    assert result.thresholds is None
    assert all(not s for s in flagged.values())


def test_filter_tr_flags_middle_cluster():
    rng = np.random.default_rng(4)
    low = rng.normal(0.1, 0.01, size=80)
    mid = rng.normal(0.5, 0.01, size=60)
    high = rng.normal(0.9, 0.01, size=90)
    pool = np.concatenate([low, mid, high])
    rng.shuffle(pool)
    per_example = [("a", pool[:100]), ("b", pool[100:])]
    flagged, result, class_means = filter_tr(per_example, k=3, bins=256)
    all_flagged = [per_example[0][1][i] for i in flagged["a"]]
    all_flagged += [per_example[1][1][i] for i in flagged["b"]]
    assert all(0.4 < v < 0.6 for v in all_flagged)
    assert len(all_flagged) == 60  # exactly the middle cluster's mass


def test_filter_tr_single_cluster_after_otsu_keeps_everything():
    per_example = [("a", np.array([1.0, 1.0, 1.0, 1.0]))]
    flagged, _, _ = filter_tr(per_example)
    assert flagged["a"] == set()


# ---------------------------------------------------------------------------
# union, attribution, complementarity
# ---------------------------------------------------------------------------


def test_union_mask_empty_sets():
    mask = union_mask(set(), set(), set(), 4, "a")
    assert mask.noise == [False] * 4
    assert all(s == () for s in mask.sources)


def test_union_mask_attribution_literal():
    mask = union_mask({1}, {1, 2}, set(), 4, "a")
    assert mask.noise == [False, True, True, False]
    assert mask.sources[1] == ("RI", "KN")
    assert mask.sources[2] == ("KN",)


def test_union_mask_cardinality_matches_set_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        ri = set(rng.integers(0, n, size=rng.integers(0, n)).tolist())
        kn = set(rng.integers(0, n, size=rng.integers(0, n)).tolist())
        tr = set(rng.integers(0, n, size=rng.integers(0, n)).tolist())
        mask = union_mask(ri, kn, tr, n, "x")
        assert mask.n_flagged() == len(ri | kn | tr)
        # lossless attribution: the three sets reconstruct exactly
        assert {k for k, s in enumerate(mask.sources) if "RI" in s} == ri
        assert {k for k, s in enumerate(mask.sources) if "KN" in s} == kn
        assert {k for k, s in enumerate(mask.sources) if "TR" in s} == tr


def test_union_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        union_mask({5}, set(), set(), 4, "a")


def test_complementarity_disjoint_and_identical():
    disjoint = [NoiseMask("a", [True, True, False], [("RI",), ("KN",), ()])]
    rep = complementarity_report(disjoint)
    assert rep["overlap"]["RI"]["KN"] == 0.0
    assert rep["overlap"]["KN"]["RI"] == 0.0
    identical = [NoiseMask("a", [True, True], [("RI", "KN"), ("RI", "KN")])]
    rep = complementarity_report(identical)
    assert rep["overlap"]["RI"]["KN"] == 1.0
    assert rep["overlap"]["KN"]["RI"] == 1.0
    assert rep["marginal"]["RI"] == 1.0


def _fake_scores(rng, n_examples=8):
    scores = []
    for i in range(n_examples):
        n = int(rng.integers(2, 12))
        pcp = rng.uniform(0.0, 1.0, size=n)
        scores.append(
            TokenScores(
                f"s{i}",
                s_ri=rng.uniform(0.0, 1.0, size=n),
                s_kn=1.0 - pcp,
                s_tr=rng.uniform(0.0, 1.0, size=n),
                pcp=pcp,
            )
        )
    return scores


def test_apply_filters_ablation_consistency():
    # dropping one attribute yields exactly the union of the other two
    rng = np.random.default_rng(6)
    scores = _fake_scores(rng)
    full_masks, _ = apply_filters(scores, FilterConfig())
    for dropped in ATTRIBUTES:
        kept = tuple(a for a in ATTRIBUTES if a != dropped)
        partial_masks, _ = apply_filters(scores, FilterConfig(enabled=kept))
        for fm, pm in zip(full_masks, partial_masks):
            for k in range(len(fm.noise)):
                expected = tuple(a for a in fm.sources[k] if a != dropped)
                assert pm.sources[k] == expected
                assert pm.noise[k] == bool(expected)


def test_apply_filters_stats_populated():
    rng = np.random.default_rng(7)
    scores = _fake_scores(rng)
    masks, stats = apply_filters(scores, FilterConfig())
    assert stats.total_tokens == sum(s.n_tokens() for s in scores)
    assert stats.flagged_tokens == sum(m.n_flagged() for m in masks)
    assert set(stats.per_attribute_counts) == set(ATTRIBUTES)
    if stats.otsu_thresholds is not None:
        assert list(stats.otsu_thresholds) == sorted(stats.otsu_thresholds)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(kn_cutoff=1.5)
    with pytest.raises(ValueError):
        FilterConfig(otsu_classes=1)
    with pytest.raises(ValueError):
        FilterConfig(otsu_bins=2, otsu_classes=3)
    with pytest.raises(ValueError):
        FilterConfig(enabled=("RI", "XX"))


def test_mask_file_round_trip(tmp_path):
    masks = [
        NoiseMask("a", [True, False], [("RI", "TR"), ()]),
        NoiseMask("b", [False], [()]),
    ]
    path = tmp_path / "masks.jsonl"
    save_masks(masks, path)
    loaded = load_masks(path)
    assert [m.id for m in loaded] == ["a", "b"]
    assert loaded[0].noise == [True, False]
    assert loaded[0].sources == [("RI", "TR"), ()]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda objs: objs[0].pop("id"),
        lambda objs: objs[0].pop("noise"),
        lambda objs: objs[1].pop("sources"),
        lambda objs: objs[1].__setitem__("id", 7),
        lambda objs: objs[0]["sources"].append([]),  # more sources than flags
        lambda objs: objs[0]["noise"].__setitem__(1, 0),  # 0 is not a bool
        lambda objs: objs[0].__setitem__("sources", "RI"),
        lambda objs: objs.append(dict(objs[0])),  # repeated id
        lambda objs: objs.append([1, 2]),  # a line that is not an object
        lambda objs: objs[0]["sources"][0].append("ZZ"),  # `report` counts tokens per attribute
        lambda objs: objs[0]["sources"][0].append({"RI": 1}),
    ],
    ids=[
        "missing-id", "missing-noise", "missing-sources", "non-string-id", "unequal-lengths",
        "non-bool-flag", "sources-not-lists", "repeated-id", "not-an-object", "unknown-attribute", "a-dict-source",
    ],
)
def test_load_masks_rejects_malformed_files(tmp_path, mangle):
    objs = [
        {"id": "a", "noise": [True, False], "sources": [["RI", "TR"], []]},
        {"id": "b", "noise": [False], "sources": [[]]},
    ]
    mangle(objs)
    path = tmp_path / "masks.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    with pytest.raises(InputError):
        load_masks(path)


def test_stats_file_is_json(tmp_path):
    rng = np.random.default_rng(8)
    scores = _fake_scores(rng)
    _, stats = apply_filters(scores, FilterConfig())
    path = tmp_path / "stats.json"
    save_stats(stats, path)
    payload = json.loads(path.read_text())
    assert "otsu_thresholds" in payload and "per_attribute_counts" in payload


def test_histogram_rows_cover_all_values():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 1, size=500)
    rows = histogram_rows(values, bins=32)
    assert len(rows) == 32
    assert sum(r[2] for r in rows) == 500
    assert rows[0][0] == pytest.approx(values.min())
    assert rows[-1][1] == pytest.approx(values.max())
