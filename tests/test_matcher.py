import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from awekit import matcher, model
from awekit.errors import ShapeError, ValidationError
from awekit.features import FeatureSequence, pad_or_clip
from awekit.matcher import (
    ZERO_NORM_COST,
    WindowConfig,
    cosine_cost,
    embed_windows,
    fuse_templates_mean,
    make_query,
    search,
    sma,
    window_segments,
)


def seq(t, d=4, rng=None):
    rng = rng or np.random.default_rng(0)
    return FeatureSequence(frames=rng.normal(size=(t, d)).astype(np.float32))


class TestWindowConfig:
    def test_defaults(self):
        cfg = WindowConfig()
        assert cfg.window_frames(0.01) == 40

    def test_validation(self):
        with pytest.raises(ValidationError):
            WindowConfig(window_seconds=0)
        with pytest.raises(ValidationError):
            WindowConfig(stride_frames=0)


class TestWindowSegments:
    def test_counting(self):
        cfg = WindowConfig(window_seconds=0.8, stride_frames=5)
        segs = window_segments(seq(80), cfg)
        assert len(segs) == 16
        assert [s for s, _ in segs] == list(range(0, 80, 5))
        assert all(w.num_frames == 80 for _, w in segs)

    def test_short_input_all_padded(self):
        cfg = WindowConfig(window_seconds=0.8, stride_frames=5)
        segs = window_segments(seq(12), cfg)
        assert len(segs) == 3  # ceil(12/5)
        for start, w in segs:
            assert w.num_frames == 80
            assert (w.frames[12 - start :] == 0).all()

    def test_stride_equal_length_single_window(self):
        cfg = WindowConfig(window_seconds=0.1, stride_frames=10)
        segs = window_segments(seq(10), cfg)
        assert len(segs) == 1
        assert segs[0][0] == 0


class TestCosineCost:
    def test_identical_vector(self):
        ((cost,),) = cosine_cost([[1.0, 2.0]], [[1.0, 2.0]])
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_and_parallel(self):
        (costs,) = cosine_cost([[1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(costs, [1.0, 0.0], atol=1e-12)
        assert costs[1] == 0.0

    def test_hand_value(self):
        ((cost,),) = cosine_cost([[1.0, 1.0]], [[1.0, 0.0]])
        assert cost == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-9)
        assert cost == pytest.approx(0.29289, abs=1e-5)

    def test_zero_norm_flagged(self):
        costs = cosine_cost([[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(costs, [[ZERO_NORM_COST, ZERO_NORM_COST]])
        assert cosine_cost([[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])[0, 0] == ZERO_NORM_COST
        stacked = cosine_cost([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(stacked, [[ZERO_NORM_COST, 0.0, 1.0], [ZERO_NORM_COST] * 3])

    def test_stacked_queries_match_one_at_a_time(self):
        rng = np.random.default_rng(10)
        xs, ys = rng.normal(size=(5, 6)), rng.normal(size=(9, 6))
        stacked = cosine_cost(xs, ys)
        assert stacked.shape == (5, 9)
        for x, row in zip(xs, stacked):
            np.testing.assert_allclose(row, cosine_cost([x], ys)[0], rtol=0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(1e-3, 1e3), seed=st.integers(0, 10**6))
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=3) + 0.1, rng.normal(size=3) + 0.1
        base = cosine_cost([x], [y])[0, 0]
        scaled = cosine_cost([c * x], [y])[0, 0]
        assert scaled == pytest.approx(base, abs=1e-6)


class TestSma:
    def test_constant_unchanged(self):
        np.testing.assert_allclose(sma([2.0] * 5, 3), [2.0] * 5)

    def test_hand_values(self):
        np.testing.assert_allclose(sma([0.0, 1.0, 0.0, 1.0], 2), [0.0, 0.5, 0.5, 0.5])

    def test_k1_identity(self):
        trace = np.random.default_rng(1).uniform(size=7)
        np.testing.assert_allclose(sma(trace, 1), trace)

    def test_window_longer_than_trace_covers_it(self):
        traces = np.random.default_rng(12).uniform(size=(3, 7))
        np.testing.assert_array_equal(sma(traces, 2**63), sma(traces, 7))

    def test_rows_smoothed_independently(self):
        traces = np.random.default_rng(11).uniform(size=(4, 8))
        np.testing.assert_array_equal(sma(traces, 3), [sma(t, 3) for t in traces])

    def test_range_never_extends(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            trace = rng.uniform(size=10)
            smoothed = sma(trace, int(rng.integers(1, 6)))
            assert smoothed.min() >= trace.min() - 1e-12
            assert smoothed.max() <= trace.max() + 1e-12


class TestFuseTemplatesMean:
    def test_single_identity(self):
        e = np.array([1.0, 2.0])
        np.testing.assert_allclose(fuse_templates_mean([e]), e)

    def test_mean(self):
        np.testing.assert_allclose(
            fuse_templates_mean([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5]
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        embs = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            fuse_templates_mean(embs), fuse_templates_mean(embs[::-1]), atol=1e-12
        )


@pytest.fixture(scope="module")
def tiny_model():
    cfg = model.ModelConfig(
        input_dim=4,
        stage_channels=(2, 3, 4, 5),
        num_classes_per_language=(2, 2),
        seed=0,
    )
    return model.build_network(cfg), cfg


class TestSearch:
    WCFG = WindowConfig(window_seconds=0.2, stride_frames=4, sma_len=1)

    def test_planted_exact_match_scores_zero(self, tiny_model):
        params, cfg = tiny_model
        rng = np.random.default_rng(4)
        word = rng.normal(size=(12, 4)).astype(np.float32)
        w = self.WCFG.window_frames()  # 20 frames
        # utterance: word at frame 8 (a multiple of the stride), zeros elsewhere
        utt = np.zeros((40, 4), dtype=np.float32)
        utt[8 : 8 + 12] = word
        template = FeatureSequence(frames=word)
        other = FeatureSequence(frames=rng.normal(size=(40, 4)).astype(np.float32))
        q = make_query(params, cfg, self.WCFG, {0: [template]})
        rankings = search(q, [(0, FeatureSequence(frames=utt)), (1, other)], params, cfg, self.WCFG)
        entries = rankings[0].entries
        assert entries[0][0] == 0
        assert entries[0][1] <= 1e-5
        assert entries[0][2:] == (8, 28)  # the window at the planted word

    def test_identical_utterances_tie_broken_by_id(self, tiny_model):
        params, cfg = tiny_model
        rng = np.random.default_rng(5)
        content = FeatureSequence(frames=rng.normal(size=(30, 4)).astype(np.float32))
        clone = FeatureSequence(frames=content.frames.copy())
        q = make_query(params, cfg, self.WCFG, {0: [seq(10, d=4, rng=rng)]})
        rankings = search(q, [(3, content), (1, clone)], params, cfg, self.WCFG)
        entries = rankings[0].entries
        assert entries[0][1:] == entries[1][1:]
        assert [e[0] for e in entries] == [1, 3]

    def test_deterministic(self, tiny_model):
        params, cfg = tiny_model
        rng = np.random.default_rng(6)
        utts = [(u, seq(25, d=4, rng=rng)) for u in range(3)]
        q = make_query(params, cfg, self.WCFG, {0: [seq(10, d=4, rng=rng)]})
        r1 = search(q, utts, params, cfg, self.WCFG)
        r2 = search(q, utts, params, cfg, self.WCFG)
        assert r1[0].entries == r2[0].entries

    def test_one_call_per_stage_matches_separate_calls(self, tiny_model):
        # all keywords' templates, and all utterances' windows, in one call
        # each give what one call per keyword or utterance gives
        params, cfg = tiny_model
        rng = np.random.default_rng(8)
        templates = {3: [seq(9, rng=rng), seq(14, rng=rng)], 1: [seq(12, rng=rng)] * 3}
        queries = make_query(params, cfg, self.WCFG, templates)
        assert list(queries) == [1, 3]
        for k, fused in queries.items():
            w = self.WCFG.window_frames()
            fitted = [pad_or_clip(t, w) for t in templates[k]]
            alone = fuse_templates_mean(model.embed_sequences(params, cfg, fitted))
            np.testing.assert_allclose(fused, alone, atol=1e-6)
        utts = [seq(t, rng=rng) for t in (25, 3, 40)]
        embs, starts, bounds = embed_windows(params, cfg, utts, self.WCFG)
        assert embs.dtype == np.float64
        assert bounds.tolist() == [0, 7, 8, 18]  # ceil(T / stride 4) windows each
        assert len(embs) == len(starts) == bounds[-1]
        for utt, lo, hi in zip(utts, bounds[:-1], bounds[1:]):
            alone_embs, alone_starts, alone_bounds = embed_windows(params, cfg, [utt], self.WCFG)
            assert alone_bounds.tolist() == [0, hi - lo]
            np.testing.assert_array_equal(starts[lo:hi], alone_starts)
            np.testing.assert_allclose(embs[lo:hi], alone_embs, atol=1e-6)

    def test_appending_exact_match_never_worsens_score(self, tiny_model):
        params, cfg = tiny_model
        rng = np.random.default_rng(7)
        word = rng.normal(size=(12, 4)).astype(np.float32)
        template = FeatureSequence(frames=word)
        q = make_query(params, cfg, self.WCFG, {0: [template]})
        base_frames = rng.normal(size=(24, 4)).astype(np.float32)
        w = self.WCFG.window_frames()
        planted = np.zeros((w, 4), dtype=np.float32)
        planted[:12] = word
        extended = np.concatenate([base_frames, planted])
        r_base = search(q, [(0, FeatureSequence(frames=base_frames))], params, cfg, self.WCFG)
        r_ext = search(q, [(0, FeatureSequence(frames=extended))], params, cfg, self.WCFG)
        assert r_ext[0].entries[0][1] <= r_base[0].entries[0][1] + 1e-9


def brute_force_search(queries, utterances, embed, wcfg):
    """{keyword_id: [(utt_id, score, start, end)]} for the query map
    {keyword_id: fused vector}, with one cosine per (query, window), a
    trailing mean summed from scratch at every window and the first index
    of the minimum."""
    out = {}
    for keyword_id, fused in queries.items():
        entries = []
        for utt_id, s in utterances:
            frames = s.frames.astype(np.float64)
            w = wcfg.window_frames()
            starts = list(range(0, len(frames), wcfg.stride_frames))
            costs = []
            for start in starts:
                window = np.zeros((w, frames.shape[1]))
                part = frames[start : start + w]
                window[: len(part)] = part
                e = embed(window)
                qn, en = np.sqrt(np.sum(fused**2)), np.sqrt(np.sum(e**2))
                costs.append(ZERO_NORM_COST if qn == 0 or en == 0 else 1.0 - float(fused @ e) / (qn * en))
            smoothed = []
            for i in range(len(costs)):
                lo = max(0, i - wcfg.sma_len + 1)
                smoothed.append(sum(costs[lo : i + 1]) / (i + 1 - lo))
            best = 0
            for i, value in enumerate(smoothed):
                if value < smoothed[best]:
                    best = i
            entries.append((utt_id, smoothed[best], starts[best], min(starts[best] + w, len(frames))))
        entries.sort(key=lambda e: (e[1], e[0]))
        out[keyword_id] = entries
    return out


class TestSearchOracle:
    """`search` scores all keywords of an utterance with one product;
    a per-window brute-force scorer must agree with it."""

    @staticmethod
    def frame_sum(frames):
        # linear, so an all-zero window embeds to a zero-norm vector
        return np.asarray(frames, dtype=np.float64).sum(axis=0)

    @pytest.mark.parametrize("sma_len", [1, 3, 7])
    def test_matches_brute_force(self, monkeypatch, sma_len):
        monkeypatch.setattr(
            matcher, "embed_sequences", lambda params, cfg, seqs: np.stack([self.frame_sum(s.frames) for s in seqs])
        )
        wcfg = WindowConfig(window_seconds=0.1, stride_frames=5, sma_len=sma_len)  # 10-frame windows
        rng = np.random.default_rng(9)
        with_zero_window = rng.normal(size=(40, 4)).astype(np.float32)
        with_zero_window[15:25] = 0.0  # the window starting at frame 15 is all zero
        utterances = [
            (4, seq(33, rng=rng)),
            (0, FeatureSequence(frames=with_zero_window)),
            (2, seq(12, rng=rng)),  # 3 windows, fewer than sma_len 7
            (7, seq(4, rng=rng)),  # one window
            (5, seq(50, rng=rng)),
        ]
        queries = {3: rng.normal(size=4), 1: np.zeros(4), 8: rng.normal(size=4), 6: rng.normal(size=4)}
        got = search(queries, utterances, None, None, wcfg)
        want = brute_force_search(queries, utterances, self.frame_sum, wcfg)
        assert sorted(got) == sorted(want)
        for k, entries in want.items():
            ranked = got[k].entries
            assert [(e[0], e[2], e[3]) for e in ranked] == [(e[0], e[2], e[3]) for e in entries]
            np.testing.assert_allclose([e[1] for e in ranked], [e[1] for e in entries], rtol=0, atol=1e-12)
        # the zero-norm query costs ZERO_NORM_COST everywhere: ties broken by id
        assert got[1].entries == tuple((u, ZERO_NORM_COST, 0, min(10, s.num_frames)) for u, s in sorted(utterances))
