"""Retrieval metrics: average precision, precision at k, and corpus-level
report assembly (MAP, P@5, P@N)."""

from dataclasses import dataclass

from .errors import ValidationError
from .matcher import RankedList


@dataclass(frozen=True)
class KeywordMetrics:
    keyword_id: int
    ap: float
    p_at_5: float
    p_at_n: float
    num_relevant: int


@dataclass(frozen=True)
class MetricsReport:
    per_keyword: tuple[KeywordMetrics, ...]
    map: float
    mean_p_at_5: float
    mean_p_at_n: float


def average_precision(ranked: RankedList, relevant: set) -> float:
    """Mean of precision-at-hit over the relevant set."""
    if not relevant:
        raise ValidationError(f"keyword {ranked.keyword_id}: empty relevant set")
    hits = 0
    total = 0.0
    for rank, (utt_id, *_) in enumerate(ranked.entries, start=1):
        if utt_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def precision_at_k(ranked: RankedList, relevant: set, k: int) -> float:
    """Fraction of the top k entries that are relevant.

    The denominator stays k even when fewer than k utterances exist
    (fixed-denominator convention)."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    hits = sum(1 for utt_id, *_ in ranked.entries[:k] if utt_id in relevant)
    return hits / k


def evaluate(rankings: dict, relevance: dict) -> MetricsReport:
    """Per-keyword AP/P@5/P@N plus unweighted means across keywords.

    relevance maps keyword_id -> set of utterance ids containing it. A
    keyword absent from it never occurs in the search content: its AP, a
    mean over no relevant utterances, is undefined, so it is not scored."""
    per_keyword = []
    for keyword_id in sorted(rankings):
        if keyword_id not in relevance:
            continue
        relevant = set(relevance[keyword_id])
        ranked = rankings[keyword_id]
        per_keyword.append(
            KeywordMetrics(
                keyword_id=keyword_id,
                ap=average_precision(ranked, relevant),
                p_at_5=precision_at_k(ranked, relevant, 5),
                p_at_n=precision_at_k(ranked, relevant, len(relevant)),
                num_relevant=len(relevant),
            )
        )
    if not per_keyword:
        raise ValidationError("no keywords to evaluate")
    mean = _means(per_keyword)
    return MetricsReport(tuple(per_keyword), mean["map"], mean["mean_p_at_5"], mean["mean_p_at_n"])


def _means(ms) -> dict:
    """Unweighted means of AP, P@5 and P@N over keyword metrics `ms`, and
    their count."""
    return {
        "map": sum(m.ap for m in ms) / len(ms),
        "mean_p_at_5": sum(m.p_at_5 for m in ms) / len(ms),
        "mean_p_at_n": sum(m.p_at_n for m in ms) / len(ms),
        "num_keywords": len(ms),
    }


def group_means(report: MetricsReport, language) -> dict:
    """Unweighted means per language, `language(keyword_id)`, as in per-group tables."""
    groups: dict[int, list[KeywordMetrics]] = {}
    for m in report.per_keyword:
        groups.setdefault(language(m.keyword_id), []).append(m)
    return {lang: _means(groups[lang]) for lang in sorted(groups)}


def render_table(report: MetricsReport, groups: dict) -> str:
    """Aligned-text table: a row per language of `groups` (`group_means`)
    plus the overall row."""
    rows = [(f"lang {lang}", g) for lang, g in groups.items()]
    rows.append(("all", _means(report.per_keyword)))
    lines = [f"{'group':<12}{'MAP':>8}{'P@5':>8}{'P@N':>8}{'#kw':>6}"]
    for name, g in rows:
        lines.append(
            f"{name:<12}{g['map']:>8.3f}{g['mean_p_at_5']:>8.3f}"
            f"{g['mean_p_at_n']:>8.3f}{g['num_keywords']:>6d}"
        )
    return "\n".join(lines)


def relevance_from_ground_truth(occurrences) -> dict:
    """keyword_id -> set of utterance ids, from occurrence records."""
    rel: dict[int, set] = {}
    for occ in occurrences:
        rel.setdefault(occ.word_id, set()).add(occ.utterance_id)
    return rel
