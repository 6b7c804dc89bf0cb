import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from awekit.errors import ValidationError
from awekit.matcher import RankedList
from awekit.metrics import (
    average_precision,
    evaluate,
    group_means,
    precision_at_k,
    relevance_from_ground_truth,
    render_table,
)


def ranked(ids, keyword_id=0):
    return RankedList(
        keyword_id=keyword_id,
        entries=tuple((u, i * 0.1) for i, u in enumerate(ids)),
    )


def ap_bruteforce(ids, relevant):
    """Textbook definition: mean over relevant items of precision at the
    rank where each is retrieved (0 contribution if never retrieved)."""
    total = 0.0
    for item in relevant:
        if item not in ids:
            continue
        rank = ids.index(item) + 1
        hits_to_rank = sum(1 for u in ids[:rank] if u in relevant)
        total += hits_to_rank / rank
    return total / len(relevant)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(ranked([1, 2, 3, 4]), {1, 2}) == 1.0

    def test_hand_case_alternating(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
        assert average_precision(ranked([1, 9, 2, 8]), {1, 2}) == pytest.approx(5 / 6)

    def test_hand_case_single_late_hit(self):
        # one relevant item at rank 4: AP = 1/4
        assert average_precision(ranked([9, 8, 7, 1]), {1}) == 0.25

    def test_missing_relevant_counts_against(self):
        # relevant item 5 never retrieved: (1/1) / 2
        assert average_precision(ranked([1, 9]), {1, 5}) == 0.5

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValidationError):
            average_precision(ranked([1]), set())

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            ids = list(rng.permutation(n))
            relevant = set(
                int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            )
            assert average_precision(ranked(ids), relevant) == pytest.approx(
                ap_bruteforce(ids, relevant)
            )

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ids = list(rng.permutation(8))
            relevant = {int(rng.integers(0, 8))}
            ap = average_precision(ranked(ids), relevant)
            assert 0.0 <= ap <= 1.0


class TestPrecisionAtK:
    def test_hand_cases(self):
        r = ranked([1, 9, 2, 8, 3])
        assert precision_at_k(r, {1, 2, 3}, 1) == 1.0
        assert precision_at_k(r, {1, 2, 3}, 2) == 0.5
        assert precision_at_k(r, {1, 2, 3}, 5) == 0.6

    def test_fixed_denominator_with_short_list(self):
        assert precision_at_k(ranked([1, 2]), {1, 2}, 5) == pytest.approx(0.4)

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            precision_at_k(ranked([1]), {1}, 0)


class TestEvaluate:
    def test_aggregates_are_means(self):
        rankings = {
            0: ranked([1, 2, 3], keyword_id=0),  # relevant {1}: AP 1.0
            1: ranked([3, 2, 1], keyword_id=1),  # relevant {1}: AP 1/3
        }
        report = evaluate(rankings, {0: {1}, 1: {1}})
        assert report.map == pytest.approx((1.0 + 1 / 3) / 2)
        assert report.per_keyword[0].p_at_n == 1.0  # P@1
        assert report.per_keyword[1].p_at_n == 0.0

    def test_p_at_n_uses_relevant_count(self):
        report = evaluate({0: ranked([1, 2, 9, 8])}, {0: {1, 2, 8}})
        assert report.per_keyword[0].p_at_n == pytest.approx(2 / 3)

    def test_missing_relevance_rejected(self):
        with pytest.raises(ValidationError, match="keyword 0"):
            evaluate({0: ranked([1])}, {})

    def test_random_ranking_expected_p_at_n(self):
        # with r relevant out of u utterances, E[P@N] under a uniformly
        # random ranking is r/u; check the empirical mean over many draws
        rng = np.random.default_rng(2)
        u, r = 10, 3
        relevant = set(range(r))
        vals = []
        for _ in range(2000):
            ids = list(rng.permutation(u))
            vals.append(precision_at_k(ranked(ids), relevant, r))
        assert np.mean(vals) == pytest.approx(r / u, abs=0.02)

    def test_group_means_partition(self):
        rankings = {k: ranked(list(np.roll(np.arange(4), k)), keyword_id=k) for k in range(4)}
        relevance = {k: {0} for k in range(4)}
        report = evaluate(rankings, relevance)
        groups = group_means(report, {0: 0, 1: 0, 2: 1, 3: 1})
        weighted = sum(g["map"] * g["num_keywords"] for g in groups.values()) / 4
        assert weighted == pytest.approx(report.map)

    def test_render_table_contains_rows(self):
        report = evaluate({0: ranked([1]), 1: ranked([1])}, {0: {1}, 1: {1}})
        text = render_table(report, group_means(report, {0: 0, 1: 1}))
        assert "lang 0" in text and "lang 1" in text and "all" in text


class TestRelevanceFromGroundTruth:
    @dataclass
    class Occ:
        word_id: int
        utterance_id: int

    def test_collects_utterances_per_word(self):
        occs = [self.Occ(0, 5), self.Occ(0, 5), self.Occ(0, 6), self.Occ(1, 5)]
        rel = relevance_from_ground_truth(occs)
        assert rel == {0: {5, 6}, 1: {5}}
