"""Plain reference computations that the benchmark checks awekit against.

They restate the paper's scoring rules one step at a time and share no
scoring code with awekit: AWE scores embed one window per forward call
and smooth with an explicit loop; S-DTW scores run the dynamic program as
nested Python loops.
"""

import numpy as np

ZERO_NORM_COST = 1.0


def cosine_costs(a, b):
    """[len(a), len(b)] cosine distances of row vectors, float64; a pair
    that involves a zero vector costs ZERO_NORM_COST."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    out = 1.0 - (a / np.where(na == 0, 1, na)[:, None]) @ (b / np.where(nb == 0, 1, nb)[:, None]).T
    out[na == 0, :] = ZERO_NORM_COST
    out[:, nb == 0] = ZERO_NORM_COST
    return out


# -- acoustic word embedding search ------------------------------------


def fit_frames(frames, width):
    """Zero-pad at the end, or clip to the centred `width` frames."""
    t = frames.shape[0]
    if t >= width:
        start = (t - width) // 2
        return frames[start : start + width]
    return np.concatenate([frames, np.zeros((width - t, frames.shape[1]), frames.dtype)])


def window_frames(frames, width, stride):
    """Windows of `width` frames starting every `stride` frames; the last
    ones are zero-padded."""
    out = []
    for start in range(0, frames.shape[0], stride):
        win = frames[start : start + width]
        pad = np.zeros((width - win.shape[0], frames.shape[1]), frames.dtype)
        out.append(np.concatenate([win, pad]))
    return out


def embed_one_by_one(embed, frame_list):
    """Embed each frame matrix with its own forward call."""
    return np.stack([np.asarray(embed(f), dtype=np.float64) for f in frame_list])


def awe_score(query, window_embeddings, sma_len):
    """Minimum over windows of the trailing moving average of the cosine
    cost between the query and each window embedding."""
    costs = cosine_costs(query[None, :], window_embeddings)[0]
    smoothed = []
    for i in range(len(costs)):
        lo = max(0, i - sma_len + 1)
        smoothed.append(sum(costs[lo : i + 1]) / (i + 1 - lo))
    return min(smoothed)


# -- subsequence DTW ---------------------------------------------------


def sdtw_cost(query, content):
    """Subsequence DTW cost (free start and end on the content axis),
    steps (1,0), (0,1), (1,1), divided by the query length."""
    c = cosine_costs(query, content).tolist()
    prev = list(c[0])
    for i in range(1, len(c)):
        row = [prev[0] + c[i][0]]
        for j in range(1, len(c[i])):
            row.append(c[i][j] + min(prev[j - 1], prev[j], row[j - 1]))
        prev = row
    return min(prev) / len(c)


def dtw_path(a, b):
    """Global DTW alignment path of frame matrices a and b as (i, j)
    pairs. Ties prefer the diagonal step, then (1,0), then (0,1)."""
    c = cosine_costs(a, b).tolist()
    ta, tb = len(c), len(c[0])
    acc = [[0.0] * tb for _ in range(ta)]
    acc[0][0] = c[0][0]
    run = 0.0
    for j in range(1, tb):
        run += c[0][j]
        acc[0][j] = run + c[0][0]
    run = 0.0
    for i in range(1, ta):
        run += c[i][0]
        acc[i][0] = run + c[0][0]
    for i in range(1, ta):
        for j in range(1, tb):
            acc[i][j] = c[i][j] + min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1])
    i, j = ta - 1, tb - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            options = [acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]]
            pick = options.index(min(options))
        else:
            pick = 1 if i > 0 else 2
        if pick == 0:
            i, j = i - 1, j - 1
        elif pick == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    return path


def fuse_dtw(templates):
    """Average every template onto the first one along DTW alignments."""
    main = templates[0]
    groups = [[main[t].astype(np.float64)] for t in range(main.shape[0])]
    for other in templates[1:]:
        for i, j in dtw_path(other, main):
            groups[j].append(other[i].astype(np.float64))
    return np.stack([np.mean(g, axis=0) for g in groups]).astype(np.float32)


# -- retrieval ---------------------------------------------------------


def average_precision(ranked, relevant):
    """Mean over the relevant items of the precision at their rank."""
    hits, total = 0, 0.0
    for rank, item in enumerate(ranked, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)
