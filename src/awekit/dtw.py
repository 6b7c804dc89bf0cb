"""Dynamic time warping baseline: global DTW, subsequence DTW search over
frame features, and DTW-based multi-template fusion."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .features import FeatureSequence
from .matcher import RankedList, cosine_cost, unit_costs, unit_rows


@dataclass(frozen=True)
class DtwResult:
    cost: float
    path: tuple[tuple[int, int], ...]  # (query index, content index), 0-based
    span: tuple[int, int]  # [start_j, end_j) on the content axis


def cost_matrix(a: FeatureSequence, b: FeatureSequence) -> np.ndarray:
    """Pairwise cosine distances between the frames of two sequences."""
    return cosine_cost(a.frames, b.frames)


def _backtrace(acc: np.ndarray, i: int, j: int, free_start: bool):
    """Walk the accumulated-cost matrix from (i, j) back to the path start.

    Tie-break prefers the diagonal step, then (1, 0), then (0, 1)."""
    path = [(i, j)]
    while i > 0 or (j > 0 and not free_start):
        if i > 0 and j > 0:
            diag, up, left = acc.item(i - 1, j - 1), acc.item(i - 1, j), acc.item(i, j - 1)
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        elif i > 0:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    return tuple(reversed(path))


def _accumulate(costs, free_start: bool) -> np.ndarray:
    """Accumulated-cost matrix for steps {(1,0),(0,1),(1,1)}.

    With free_start every column of the first row may start a path
    (subsequence DTW); otherwise paths start at (0, 0). Each later row is a
    min-plus prefix scan: acc[i, j] = run[j] + min over k <= j of
    (moves[k] + costs[i, k] - run[k]), where run[j] = sum(costs[i, 1:j+1]),
    moves[k] = min(acc[i-1, k-1], acc[i-1, k]) and the k = 0 term is acc[i, 0]."""
    costs = np.asarray(costs, dtype=np.float64)
    ta, tb = costs.shape
    if ta < 1 or tb < 1:
        raise ValidationError("dtw inputs must be non-empty")
    acc = np.empty((ta, tb))
    if free_start:
        acc[0] = costs[0]
        acc[:, 0] = costs[:, 0].cumsum()
    else:
        acc[0, 0] = costs[0, 0]
        acc[0, 1:] = costs[0, 1:].cumsum() + costs[0, 0]
        acc[1:, 0] = costs[1:, 0].cumsum() + costs[0, 0]
    run = np.zeros((ta - 1, tb))
    costs[1:, 1:].cumsum(axis=1, out=run[:, 1:])
    lead = costs[1:] - run
    lead[:, 0] = acc[1:, 0]
    moves = np.zeros(tb)  # moves[0] stays 0, so lead[:, 0] is the k = 0 term
    for diag, up, lead_i, run_i, row in zip(acc[:-1, :-1], acc[:-1, 1:], lead, run, acc[1:]):
        np.minimum(diag, up, out=moves[1:])
        np.add(moves, lead_i, out=row)
        np.minimum.accumulate(row, out=row)
        row += run_i
    return acc


def dtw(a: FeatureSequence, b: FeatureSequence) -> DtwResult:
    """Global alignment with steps {(1,0),(0,1),(1,1)} and cosine local cost."""
    return dtw_from_costs(cost_matrix(a, b))


def dtw_from_costs(costs: np.ndarray) -> DtwResult:
    acc = _accumulate(costs, free_start=False)
    ta, tb = acc.shape
    path = _backtrace(acc, ta - 1, tb - 1, free_start=False)
    return DtwResult(cost=float(acc[-1, -1]), path=path, span=(0, tb))


def sdtw_from_costs(costs: np.ndarray) -> DtwResult:
    """Subsequence DTW: free start and end on the content axis."""
    acc = _accumulate(costs, free_start=True)
    end_j = int(np.argmin(acc[-1]))
    path = _backtrace(acc, acc.shape[0] - 1, end_j, free_start=True)
    return DtwResult(cost=float(acc[-1, end_j]), path=path, span=(path[0][1], end_j + 1))


def fuse_templates_dtw(templates) -> FeatureSequence:
    """Average templates frame-wise along DTW alignments to the first one.

    Each frame of the first (main) template is replaced by the mean of
    itself and every frame (from every other template) aligned to it."""
    templates = list(templates)
    if not templates:
        raise ValidationError("need at least one template")
    main = templates[0]
    sums = main.frames.astype(np.float64)
    counts = np.ones(main.num_frames)
    for other in templates[1:]:
        i, j = np.array(dtw(other, main).path).T
        np.add.at(sums, j, other.frames[i].astype(np.float64))
        counts += np.bincount(j, minlength=main.num_frames)
    return replace(main, frames=(sums / counts[:, None]).astype(np.float32))


def sdtw_search(keyword_templates: dict, utterances, fusion: str = "none"):
    """Rank utterances per keyword by normalized S-DTW cost.

    fusion="none" scores each utterance by the best template;
    fusion="dtw" first fuses all templates (main = first listed). Ties
    break by utterance id. An entry's span is the best probe's S-DTW
    match span. Returns {keyword_id: RankedList}."""
    if fusion not in ("none", "dtw"):
        raise ValidationError(f"fusion must be 'none' or 'dtw', got {fusion!r}")
    contents = [(u, unit_rows(seq.frames)) for u, seq in utterances]
    rankings = {}
    for keyword_id, templates in keyword_templates.items():
        if not templates:
            raise ValidationError(f"keyword {keyword_id} has no templates")
        probes = [fuse_templates_dtw(templates)] if fusion == "dtw" else templates
        probes = [(p.num_frames, unit_rows(p.frames)) for p in probes]
        scored = []
        for u, content in contents:
            results = ((sdtw_from_costs(unit_costs(p, content)), n) for n, p in probes)
            best, n = min(results, key=lambda e: e[0].cost / e[1])
            scored.append((u, best.cost / n, *best.span))
        rankings[keyword_id] = RankedList.ranked(keyword_id, scored)
    return rankings
