import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_tensorkit import assert_same_bits

from awekit.corpus import CorpusSpec, load_manifest, save_manifest, synth_corpus
from awekit.dtw import (
    cost_matrix,
    dtw,
    dtw_from_costs,
    fuse_templates_dtw,
    sdtw_from_costs,
    sdtw_search,
)
from awekit.errors import ShapeError, ValidationError
from awekit.features import FeatureSequence
from awekit.matcher import ZERO_NORM_COST, RankedList, cosine_cost


def enumerate_paths_cost(costs):
    """Exhaustive minimum over all monotone warping paths (oracle)."""
    ta, tb = costs.shape

    def walk(i, j):
        here = costs[i, j]
        if i == ta - 1 and j == tb - 1:
            return here
        best = np.inf
        if i + 1 < ta and j + 1 < tb:
            best = min(best, walk(i + 1, j + 1))
        if i + 1 < ta:
            best = min(best, walk(i + 1, j))
        if j + 1 < tb:
            best = min(best, walk(i, j + 1))
        return here + best

    return walk(0, 0)


def sdtw(query, content):
    """Subsequence DTW of two sequences: free start and end on the content axis."""
    return sdtw_from_costs(cost_matrix(query, content))


def normalized_sdtw_cost(query, content):
    """S-DTW cost divided by query length; sdtw_search's ranking score."""
    return sdtw(query, content).cost / query.num_frames


def sdtw_oracle(costs):
    """Min over all content spans of the full-alignment oracle."""
    tc = costs.shape[1]
    return min(
        enumerate_paths_cost(costs[:, s:e])
        for s in range(tc)
        for e in range(s + 1, tc + 1)
    )


def loop_dtw(costs, free_start):
    """Nested-loop DP and backtrace (oracle for the row-scan kernel).

    Returns cost, path and span as the kernel does, and whether the choice
    of end column or any backtrace step met an exact tie."""
    ta, tb = costs.shape
    acc = np.empty((ta, tb))
    for i in range(ta):
        for j in range(tb):
            preds = [acc[p] for p in ((i - 1, j - 1), (i - 1, j), (i, j - 1)) if min(p) >= 0]
            if i == 0 and free_start:
                preds = []
            acc[i, j] = costs[i, j] + min(preds, default=0.0)
    i, j = ta - 1, int(np.argmin(acc[-1])) if free_start else tb - 1
    tied = free_start and np.count_nonzero(acc[-1] == acc[-1, j]) > 1
    path = [(i, j)]
    while i > 0 or (j > 0 and not free_start):
        # preference order: diagonal, then (1, 0), then (0, 1)
        steps = [p for p in ((i - 1, j - 1), (i - 1, j), (i, j - 1)) if min(p) >= 0]
        values = [acc[p] for p in steps]
        tied = tied or values.count(min(values)) > 1
        i, j = steps[values.index(min(values))]
        path.append((i, j))
    path = tuple(reversed(path))
    span = (path[0][1], path[-1][1] + 1) if free_start else (0, tb)
    return float(acc[path[-1]]), path, span, tied


COST_KINDS = ("random", "quarters", "zero-norm-columns")


def draw_costs(kind, shape, seed):
    """Cosine-range costs; quarter values make every sum exact and ties common."""
    rng = np.random.default_rng(seed)
    if kind == "quarters":
        return rng.integers(0, 5, size=shape) / 4.0
    costs = rng.uniform(0.0, 2.0, size=shape)
    if kind == "zero-norm-columns":
        costs[:, rng.random(shape[1]) < 0.4] = ZERO_NORM_COST
    return costs


def seq(rows):
    return FeatureSequence(frames=np.asarray(rows, dtype=np.float32))


def cosine_oracle(a, b):
    """Per-frame cosine distance; zero-norm frames cost 1."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - np.dot(a, b) / (na * nb)


def local_cost(a_frame, b_frame):
    """cost_matrix on two one-frame sequences."""
    return float(cost_matrix(seq([a_frame]), seq([b_frame]))[0, 0])


class TestLocalCost:
    def test_identical_nonzero(self):
        assert local_cost([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal(self):
        assert local_cost([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        assert local_cost([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.29289, abs=1e-5)

    def test_zero_norm_convention(self):
        assert local_cost([0.0, 0.0], [1.0, 0.0]) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            local_cost([1.0], [1.0, 2.0])

    def test_same_bits_as_matcher_cosine_cost(self):
        # S-DTW frames and AWE embeddings share one cosine rule
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(7, 5)), rng.normal(size=(11, 5))
        a[2] = 0.0
        b[[0, 6]] = 0.0
        a, b = seq(a), seq(b)
        got = cost_matrix(a, b)
        assert_same_bits(got, cosine_cost(a.frames, b.frames))
        assert (got[2] == ZERO_NORM_COST).all() and (got[:, [0, 6]] == ZERO_NORM_COST).all()


class TestDtw:
    def test_identical_sequences(self):
        rng = np.random.default_rng(0)
        a = seq(rng.normal(size=(5, 3)))
        result = dtw(a, a)
        assert result.cost == pytest.approx(0.0, abs=1e-9)
        assert result.path == tuple((i, i) for i in range(5))

    def test_scalar_example_with_absolute_cost(self):
        # a=(0,3), b=(0,1,3) with |.| local cost
        a, b = np.array([0.0, 3.0]), np.array([0.0, 1.0, 3.0])
        costs = np.abs(a[:, None] - b[None, :])
        result = dtw_from_costs(costs)
        assert result.cost == pytest.approx(enumerate_paths_cost(costs)) == pytest.approx(1.0)
        assert result.path == ((0, 0), (0, 1), (1, 2))

    def test_cost_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = seq(rng.normal(size=(4, 2))), seq(rng.normal(size=(6, 2)))
        assert dtw(a, b).cost == pytest.approx(dtw(b, a).cost, abs=1e-9)

    def test_path_cost_sum_reproduces_cost(self):
        rng = np.random.default_rng(2)
        costs = rng.uniform(size=(5, 6))
        result = dtw_from_costs(costs)
        assert sum(costs[i, j] for i, j in result.path) == pytest.approx(
            result.cost, abs=1e-6
        )

    @settings(max_examples=60, deadline=None)
    @given(
        ta=st.integers(1, 6),
        tb=st.integers(1, 6),
        seed=st.integers(0, 10**6),
    )
    def test_matches_path_enumeration_oracle(self, ta, tb, seed):
        costs = np.random.default_rng(seed).uniform(size=(ta, tb))
        assert dtw_from_costs(costs).cost == pytest.approx(
            enumerate_paths_cost(costs), abs=1e-6
        )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            dtw_from_costs(np.zeros((0, 3)))

    def test_tie_order(self):
        # At (2,2) up and left tie below the diagonal, so (1,0) beats (0,1);
        # at (1,2) the diagonal and up tie, so the diagonal wins. Any other
        # preference order gives another path.
        costs = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert dtw_from_costs(costs).path == ((0, 0), (0, 1), (1, 2), (2, 2))


class TestRowScan:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(COST_KINDS),
        ta=st.integers(1, 10),
        tb=st.integers(1, 30),
        seed=st.integers(0, 10**6),
        free_start=st.booleans(),
    )
    def test_matches_nested_loop(self, kind, ta, tb, seed, free_start):
        costs = draw_costs(kind, (ta, tb), seed)
        got = (sdtw_from_costs if free_start else dtw_from_costs)(costs)
        cost, path, span, tied = loop_dtw(costs, free_start)
        assert got.cost == pytest.approx(cost, abs=1e-9)
        # quarter-valued sums are exact, so even tied paths must agree
        if kind == "quarters" or not tied:
            assert got.path == path
            assert got.span == span


class TestSdtw:
    def test_verbatim_occurrence(self):
        rng = np.random.default_rng(3)
        query = rng.normal(size=(4, 3))
        content = np.concatenate([rng.normal(size=(3, 3)), query, rng.normal(size=(2, 3))])
        result = sdtw(seq(query), seq(content))
        assert result.cost == pytest.approx(0.0, abs=1e-9)
        assert result.span == (3, 7)

    @settings(max_examples=60, deadline=None)
    @given(
        tq=st.integers(1, 5),
        tc=st.integers(1, 6),
        seed=st.integers(0, 10**6),
    )
    def test_matches_span_oracle(self, tq, tc, seed):
        costs = np.random.default_rng(seed).uniform(size=(tq, tc))
        assert sdtw_from_costs(costs).cost == pytest.approx(sdtw_oracle(costs), abs=1e-6)

    def test_query_longer_than_content(self):
        costs = np.random.default_rng(4).uniform(size=(6, 3))
        assert sdtw_from_costs(costs).cost == pytest.approx(sdtw_oracle(costs), abs=1e-6)

    def test_never_exceeds_global_dtw(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            costs = rng.uniform(size=(rng.integers(1, 8), rng.integers(1, 8)))
            assert sdtw_from_costs(costs).cost <= dtw_from_costs(costs).cost + 1e-12

    def test_appending_content_never_increases_cost(self):
        rng = np.random.default_rng(6)
        query = seq(rng.normal(size=(4, 2)))
        content = rng.normal(size=(6, 2))
        base = sdtw(query, seq(content)).cost
        extended = sdtw(query, seq(np.concatenate([content, rng.normal(size=(2, 2))]))).cost
        assert extended <= base + 1e-12

    def test_path_cost_sum(self):
        costs = np.random.default_rng(7).uniform(size=(4, 7))
        result = sdtw_from_costs(costs)
        assert sum(costs[i, j] for i, j in result.path) == pytest.approx(
            result.cost, abs=1e-6
        )


class TestFusion:
    def test_single_template_identity(self):
        a = seq(np.random.default_rng(8).normal(size=(5, 3)))
        assert fuse_templates_dtw([a]) == a

    def test_identical_templates(self):
        a = seq(np.random.default_rng(9).normal(size=(5, 3)))
        fused = fuse_templates_dtw([a, a, a])
        np.testing.assert_allclose(fused.frames, a.frames, atol=1e-6)

    def test_frame_repeated_copy_fuses_to_main(self):
        rng = np.random.default_rng(10)
        main = rng.normal(size=(4, 3)).astype(np.float32)
        doubled = np.repeat(main, 2, axis=0)
        fused = fuse_templates_dtw([seq(main), seq(doubled)])
        np.testing.assert_allclose(fused.frames, main, atol=1e-5)
        assert fused.num_frames == 4

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fuse_templates_dtw([])

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        dim=st.integers(2, 5),
        rounded=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_matches_per_frame_list_mean(self, lengths, dim, rounded, seed):
        # np.mean sums the rows of a frame group in order when frames have
        # two or more dims (over one dim it sums pairwise), so the fusion's
        # in-order sums must give the same bits.
        rng = np.random.default_rng(seed)
        frames = [rng.normal(scale=3.0, size=(n, dim)) for n in lengths]
        templates = [seq(np.round(f) if rounded else f) for f in frames]
        main = templates[0]
        groups = [[f.astype(np.float64)] for f in main.frames]
        for other in templates[1:]:
            for i, j in dtw(other, main).path:
                groups[j].append(other.frames[i].astype(np.float64))
        want = np.stack([np.mean(g, axis=0) for g in groups]).astype(np.float32)
        np.testing.assert_array_equal(fuse_templates_dtw(templates).frames, want)


class TestSdtwSearch:
    def build_corpus(self, rng):
        query = rng.normal(size=(4, 3))
        hit = np.concatenate([rng.normal(size=(3, 3)), query, rng.normal(size=(3, 3))])
        miss = rng.normal(size=(10, 3))
        return seq(query), [(0, seq(hit)), (1, seq(miss))]

    def test_planted_match_ranks_first(self):
        query, utts = self.build_corpus(np.random.default_rng(11))
        rankings = sdtw_search({7: [query]}, utts)
        entries = rankings[7].entries
        assert entries[0][0] == 0
        assert entries[0][1] == pytest.approx(0.0, abs=1e-9)
        assert entries[0][2:] == (3, 7)  # the planted frames

    def test_single_template_fusion_equivalence(self):
        query, utts = self.build_corpus(np.random.default_rng(12))
        none = sdtw_search({0: [query]}, utts, fusion="none")
        fused = sdtw_search({0: [query]}, utts, fusion="dtw")
        assert none[0].entries == fused[0].entries

    def test_rankings_match_bruteforce_on_tiny_corpora(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            query = rng.normal(size=(rng.integers(2, 4), 2))
            utts = [
                (u, seq(rng.normal(size=(int(rng.integers(2, 6)), 2)))) for u in range(4)
            ]
            rankings = sdtw_search({0: [seq(query)]}, utts)
            oracle_scores = []
            for u, s in utts:
                costs = np.array(
                    [[cosine_oracle(q, f) for f in s.frames] for q in query]
                )
                oracle_scores.append((sdtw_oracle(costs) / len(query), u))
            oracle_order = [u for _, u in sorted(oracle_scores)]
            got_order = [e[0] for e in rankings[0].entries]
            assert got_order == oracle_order

    def test_tie_break_by_utterance_id(self):
        rng = np.random.default_rng(15)
        content = rng.normal(size=(6, 2))
        utts = [(1, seq(content)), (0, seq(content.copy()))]
        rankings = sdtw_search({0: [seq(rng.normal(size=(3, 2)))]}, utts)
        assert [e[0] for e in rankings[0].entries] == [0, 1]

    @pytest.mark.parametrize("fusion", ["none", "dtw"])
    def test_scores_bit_identical_to_per_pair_cost(self, tmp_path, fusion):
        """Search normalises each sequence once; each score must still equal,
        bit for bit, the per-pair cost on the same lazily read sequences, and
        each span must be the best probe's S-DTW span."""
        spec = CorpusSpec(
            num_words_lang_a=2,
            num_words_lang_b=2,
            num_speakers=4,
            instances_per_word_per_speaker=3,
            feature_dim=8,
            num_search_utterances=3,
            seed=5,
        )
        save_manifest(synth_corpus(spec), tmp_path)
        bundle = load_manifest(tmp_path)
        templates = {}
        for inst in bundle.template_instances:
            templates.setdefault(inst.word_id, []).append(inst.features)
        rankings = sdtw_search(templates, bundle.utterances, fusion=fusion)
        fresh = load_manifest(tmp_path)  # nothing read yet
        expected = {}
        for inst in fresh.template_instances:
            expected.setdefault(inst.word_id, []).append(inst.features)
        for kw, tmpls in expected.items():
            probes = [fuse_templates_dtw(tmpls)] if fusion == "dtw" else tmpls
            want = {}
            for u, s in fresh.utterances:
                best = min(probes, key=lambda p: normalized_sdtw_cost(p, s))
                want[u] = (normalized_sdtw_cost(best, s), *sdtw(best, s).span)
            assert {u: tuple(rest) for u, *rest in rankings[kw].entries} == want
