import dataclasses
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from gradcheck import grad_check
from test_codec import json_trees
from test_tensorkit import assert_same_bits

from awekit import blobio, codec, tensorkit as tk
from awekit.corpus import CorpusSpec, WordInstance, synth_corpus
from awekit.errors import (
    AwekitError,
    FormatError,
    IncompatibleModelError,
    IntegrityError,
    ValidationError,
)
from awekit.features import FeatureSequence
from awekit.model import (
    LR0,
    ModelConfig,
    build_network,
    embed_sequences,
    forward,
    load_model,
    save_model,
    total_loss,
    train,
)

TINY = ModelConfig(
    input_dim=6,
    stage_channels=(2, 3, 4, 5),
    num_classes_per_language=(2, 3),
    seed=7,
)


def seqs(ts, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FeatureSequence(frames=rng.normal(size=(t, d)).astype(np.float32)) for t in ts
    ]


class TestConfig:
    def test_embedding_dim_is_last_stage(self):
        assert TINY.embedding_dim == 5

    def test_layout_modes(self):
        one = dataclasses.replace(TINY, softmax_mode="one").layout
        block = dataclasses.replace(TINY, softmax_mode="block").layout
        assert one == (5,)
        assert block == (2, 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(TINY, softmax_mode="two")
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="alpha"):
                dataclasses.replace(TINY, alpha=alpha)
        with pytest.raises(ValidationError, match="stage_channels must be >= 1"):
            dataclasses.replace(TINY, stage_channels=(2, 0, 4, 5))
        with pytest.raises(ValidationError, match="seed >= 0"):
            dataclasses.replace(TINY, seed=-1)


class TestBuildNetwork:
    def test_deterministic(self):
        a, b = build_network(TINY), build_network(TINY)
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_seed_changes_weights(self):
        a = build_network(TINY)
        b = build_network(dataclasses.replace(TINY, seed=8))
        assert any(not np.array_equal(a[n], b[n]) for n in a if n != "fc.b")

    def test_reference_config_fc_shape(self):
        cfg = ModelConfig()
        params = build_network(cfg)
        assert params["fc.w"].shape == (64, 20)
        assert params["fc.b"].shape == (20,)
        assert (params["fc.b"] == 0).all()

    def test_no_conv_biases(self):
        params = build_network(TINY)
        assert [n for n in params if n.endswith(".b")] == ["fc.b"]

    def test_default_tensor_table(self):
        """Initialization draws and the per-layer benchmark names follow this table."""
        table = [
            ("conv1.w", (8, 1, 7, 7)),
            ("res1.0.conv1.w", (8, 8, 3, 3)),
            ("res1.0.conv2.w", (8, 8, 3, 3)),
            ("res2.0.conv1.w", (16, 8, 3, 3)),
            ("res2.0.conv2.w", (16, 16, 3, 3)),
            ("res2.0.proj.w", (16, 8, 1, 1)),
            ("res3.0.conv1.w", (32, 16, 3, 3)),
            ("res3.0.conv2.w", (32, 32, 3, 3)),
            ("res3.0.proj.w", (32, 16, 1, 1)),
            ("res4.0.conv1.w", (64, 32, 3, 3)),
            ("res4.0.conv2.w", (64, 64, 3, 3)),
            ("res4.0.proj.w", (64, 32, 1, 1)),
            ("fc.w", (64, 20)),
            ("fc.b", (20,)),
        ]
        params = build_network(ModelConfig())
        assert [(name, p.shape) for name, p in params.items()] == table

    def test_projections_only_on_shape_change(self):
        params = build_network(TINY)
        # stage 1 keeps time/freq but changes channels 2->2? conv1 out = 2,
        # stage 1 in = 2 channels, no downsample -> no projection
        assert "res1.0.proj.w" not in params
        assert "res2.0.proj.w" in params  # stride + channel change


class TestForward:
    def test_shapes(self):
        params = build_network(TINY)
        emb, logits = forward(params, TINY, seqs([10, 7, 12]))
        assert emb.shape == (3, 5)
        assert logits.shape == (3, 5)
        assert np.isfinite(emb).all() and np.isfinite(logits).all()

    def test_pure(self):
        params = build_network(TINY)
        batch = seqs([9, 9])
        before = {n: p.copy() for n, p in params.items()}
        forward(params, TINY, batch)
        for n in params:
            np.testing.assert_array_equal(params[n], before[n])

    def test_zero_input_gives_zero_embedding(self):
        params = build_network(TINY)
        z = FeatureSequence(frames=np.zeros((10, 6), dtype=np.float32))
        emb, _ = forward(params, TINY, [z])
        np.testing.assert_allclose(emb, 0.0, atol=1e-7)

    def test_batch_padding_does_not_change_embeddings(self):
        # masked pooling + bias-free convs: a short sequence embeds the
        # same alone as when batched next to a long one
        params = build_network(TINY)
        short, long = seqs([8, 31], seed=3)
        alone, _ = forward(params, TINY, [short])
        batched, _ = forward(params, TINY, [short, long])
        np.testing.assert_allclose(batched[0], alone[0], atol=1e-5)

    def test_min_length_one_frame(self):
        params = build_network(TINY)
        emb, _ = forward(params, TINY, seqs([1]))
        assert emb.shape == (1, 5)

    def test_empty_and_wrong_dim_rejected(self):
        params = build_network(TINY)
        with pytest.raises(ValidationError):
            forward(params, TINY, [])
        with pytest.raises(ValidationError, match="input_dim"):
            forward(params, TINY, seqs([5], d=4))


class TestEmbedSequences:
    def test_batch_split_invariant(self):
        # items of one length, as windows and fitted templates are, embed to
        # the same bits in every batch of two or more, in any order
        cfg = ModelConfig(seed=3)
        params = build_network(cfg)
        items = seqs([80] * 65, d=cfg.input_dim, seed=5)
        base = embed_sequences(params, cfg, items, batch_size=128)
        for batch_size in (2, 3, 32):
            assert_same_bits(embed_sequences(params, cfg, items, batch_size=batch_size), base)
        perm = np.random.default_rng(0).permutation(len(items))
        assert_same_bits(embed_sequences(params, cfg, [items[i] for i in perm]), base[perm])

    @pytest.mark.parametrize("batch_size", [2, 3, 32, 128])
    def test_balanced_chunks(self, monkeypatch, batch_size):
        sizes = []

        def record(params, cfg, chunk):
            sizes.append(len(chunk))
            return np.zeros((len(chunk), cfg.embedding_dim)), None

        monkeypatch.setattr("awekit.model.forward", record)
        items = seqs([3] * 300)
        for n in range(1, len(items) + 1):
            sizes.clear()
            embed_sequences(None, TINY, items[:n], batch_size=batch_size)
            assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 2 or n == 1
            # the fewest chunks of at most batch_size, or of 2 or 3 items
            assert len(sizes) == max(1, min(math.ceil(n / batch_size), n // 2))
            assert max(sizes) <= max(batch_size, 3)

    def test_empty(self):
        assert embed_sequences(build_network(TINY), TINY, []).shape == (0, TINY.embedding_dim)


class TestTotalLoss:
    def test_hand_arithmetic(self):
        # build components whose values we can pin: use mse directly and
        # fake CE via single-class blocks (CE of a 1-class block is 0);
        # row 0 is the anchor, row 1 its partner
        logits = tk.Tensor(np.array([[0.3, 0.1], [0.2, 0.4]]))
        emb = tk.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))  # mse = (1 + 1) / 2 = 1.0
        total, ce_sum, mse_val = total_loss(logits, emb, [0, 1], (1, 1), 0.8)
        assert ce_sum == pytest.approx(0.0, abs=1e-12)
        assert mse_val == pytest.approx(1.0)
        assert float(total.value) == pytest.approx(0.8)

    def test_two_class_ln2(self):
        logits = tk.Tensor(np.zeros((2, 2)))
        emb = tk.Tensor(np.zeros((2, 3)))
        total, ce_sum, mse_val = total_loss(logits, emb, [0, 1], (2,), 0.8)
        assert ce_sum == pytest.approx(2 * np.log(2))
        assert mse_val == 0.0
        assert float(total.value) == pytest.approx(2 * np.log(2))

    def test_joint_graph_matches_separate_forwards(self):
        # one padded graph over anchors + partners gives the loss of two
        # separate forward passes: CE(anchors) + CE(partners) + alpha * MSE
        cfg = dataclasses.replace(TINY, softmax_mode="block")
        anchors, partners = seqs([6, 11], seed=12), seqs([9, 7], seed=13)
        targets = [0, 2]
        with tk.float64_mode():
            params = build_network(cfg)
            (e1, out1), (e2, out2) = forward(params, cfg, anchors), forward(params, cfg, partners)
            ce = sum(
                float(tk.block_cross_entropy(tk.Tensor(out), cfg.layout, targets).value)
                for out in (out1, out2)
            )
            mse = float(tk.mse(tk.Tensor(e1), tk.Tensor(e2)).value)
            emb, logits = forward(params, cfg, anchors + partners)
            total, ce_sum, mse_val = total_loss(
                tk.Tensor(logits), tk.Tensor(emb), targets * 2, cfg.layout, 0.8
            )
        assert mse > 0
        np.testing.assert_allclose([ce_sum, mse_val], [ce, mse], rtol=1e-5)
        np.testing.assert_allclose(float(total.value), ce + 0.8 * mse, rtol=1e-5)


def test_training_step_graph_is_freed_without_gc():
    """One training step's graph is freed by reference counting alone. A
    backward closure that held its own output Tensor would make a cycle and
    keep the step's activations alive until the next collection."""
    from awekit.model import _as_param_tensors, _batch_array, _forward_graph

    params = build_network(TINY)

    def step():
        # as `train` builds it: two sub-graphs, each its anchors then its
        # partners, joined by `scale` and `+`
        pt = _as_param_tensors(params)
        loss = None
        for lengths in ([7, 9, 8, 9], [12, 10, 11, 12]):
            batch, lens = _batch_array(seqs(lengths, seed=4), TINY)
            emb, logits = _forward_graph(pt, TINY, tk.Tensor(batch, requires_grad=False), lens)
            part, _, _ = total_loss(logits, emb, [0, 1, 0, 1], TINY.layout, 0.8)
            part = part.scale(0.5)
            loss = part if loss is None else loss + part
        loss.backward()
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._prev)
        kept = {id(p) for p in params.values()}
        return [weakref.ref(n.value) for n in nodes.values() if id(n.value) not in kept]

    gc.disable()
    try:
        refs = step()
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(refs) > 20 and alive == 0


class TestGradients:
    def test_full_network_grad_check(self):
        from awekit.model import _batch_array, _forward_graph

        cfg = dataclasses.replace(TINY, softmax_mode="block")
        with tk.float64_mode():
            pt = {n: tk.Tensor(p) for n, p in build_network(cfg).items()}
            # 2 anchors, then 2 distinct partners: the MSE term is non-zero
            pool = seqs([6, 9, 8, 7], seed=11)
            b, lens = _batch_array(pool, cfg)

            def loss_fn():
                e, out = _forward_graph(pt, cfg, tk.Tensor(b.copy()), lens)
                total, _, mse = total_loss(out, e, [0, 2, 0, 2], cfg.layout, 0.8)
                assert mse > 0
                return total

            worst = grad_check(loss_fn, pt, max_coords=4)
            assert worst < 1e-4

    def test_inactive_block_fc_columns_get_zero_grad(self):
        cfg = dataclasses.replace(TINY, softmax_mode="block", alpha=0.0)
        params = build_network(cfg)
        pt = {n: tk.Tensor(p.copy()) for n, p in params.items()}
        from awekit.model import _batch_array, _forward_graph

        b, lens = _batch_array(seqs([8], seed=5), cfg)
        e, out = _forward_graph(pt, cfg, tk.Tensor(b), lens)
        # single item of word 1, in language 0 -> columns of the language-1
        # block (indices 2..4) must receive exactly zero gradient
        loss = tk.block_cross_entropy(out, cfg.layout, [1])
        loss.backward()
        np.testing.assert_array_equal(pt["fc.w"].grad[:, 2:], 0.0)
        np.testing.assert_array_equal(pt["fc.b"].grad[2:], 0.0)
        assert np.abs(pt["fc.w"].grad[:, :2]).max() > 0


def tiny_corpus():
    return synth_corpus(
        CorpusSpec(
            num_words_lang_a=2,
            num_words_lang_b=2,
            num_speakers=4,
            instances_per_word_per_speaker=2,
            feature_dim=6,
            word_len_frames=(6, 10),
            num_search_utterances=2,
            words_per_utterance=(2, 3),
            seed=5,
        )
    )


TRAIN_CFG = ModelConfig(
    input_dim=6,
    stage_channels=(2, 3, 4, 5),
    num_classes_per_language=(2, 2),
    softmax_mode="block",
    epochs=6,
    batch_size=8,
    seed=1,
)


@pytest.fixture(scope="module")
def trained():
    bundle = tiny_corpus()
    params, report = train(TRAIN_CFG, bundle.train_instances)
    return bundle, params, report


class TestTrain:
    def test_loss_decreases(self, trained):
        _, _, report = trained
        losses = [e.total_loss for e in report.epochs]
        assert len(losses) == 6
        assert losses[-1] < losses[0]
        assert all(np.isfinite(l) for l in losses)

    def test_lr_trace_starts_at_lr0_and_never_increases(self, trained):
        _, _, report = trained
        lrs = [e.lr for e in report.epochs]
        assert lrs[0] == LR0
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_deterministic(self, trained):
        bundle, params, _ = trained
        again, _ = train(TRAIN_CFG, bundle.train_instances)
        for n in params:
            np.testing.assert_array_equal(params[n], again[n])

    def test_gradient_norm_and_clip_count(self, trained):
        bundle = trained[0]
        steps = math.ceil(len(bundle.train_instances) / TRAIN_CFG.batch_size)
        epochs = {}
        for clip in (0.0, 1e9, 1e-6):
            cfg = dataclasses.replace(TRAIN_CFG, epochs=2, grad_clip_norm=clip)
            epochs[clip] = train(cfg, bundle.train_instances)[1].epochs
        assert [e.clipped_steps for e in epochs[0.0]] == [0, 0]
        assert all(e.max_grad_norm > 0 for e in epochs[0.0])
        assert epochs[1e9] == epochs[0.0]  # a clip that never fires changes nothing
        assert [e.clipped_steps for e in epochs[1e-6]] == [steps, steps]
        assert all(e.max_grad_norm > 1e-6 for e in epochs[1e-6])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            train(TRAIN_CFG, [])

    def test_bad_word_id_rejected(self):
        bundle = tiny_corpus()
        bad = [dataclasses.replace(bundle.train_instances[0], word_id=99)]
        with pytest.raises(ValidationError, match="word_id"):
            train(TRAIN_CFG, bad)


def word_pairs(lengths):
    """Two instances per word, by speakers 0 and 1, with the given frame
    counts: each instance's only partner is the other, whatever the rng."""
    out = []
    for word, pair in enumerate(lengths):
        for speaker, frames in enumerate(pair):
            (features,) = seqs([frames], seed=10 * word + speaker)
            out.append(WordInstance(word, speaker, features))
    return out


def spy_train(monkeypatch, cfg, instances):
    """Train; return the report, the shape of every forwarded batch and the
    gradients of the first step."""
    import awekit.model as model

    shapes, grads = [], []
    forward_graph, step = model._forward_graph, tk.sgd_nesterov_step

    def record_forward(pt, cfg, x, valid_t):
        shapes.append(x.shape)
        return forward_graph(pt, cfg, x, valid_t)

    def record_step(params, g, velocity, lr, momentum):
        grads.append({name: v.copy() for name, v in g.items()})
        step(params, g, velocity, lr, momentum)

    monkeypatch.setattr(model, "_forward_graph", record_forward)
    monkeypatch.setattr(tk, "sgd_nesterov_step", record_step)
    _, report = train(cfg, instances)
    return report, shapes, grads[0]


class TestSplitStep:
    """`train` forwards each step's pairs as two length-sorted sub-graphs."""

    CFG = dataclasses.replace(TRAIN_CFG, epochs=1, grad_clip_norm=0.0)

    def test_two_halves_give_the_one_graph_loss_and_gradients(self, monkeypatch):
        from awekit.model import _as_param_tensors, _batch_array, _forward_graph

        instances = word_pairs([(5, 14), (9, 7), (12, 6), (8, 8)])
        with tk.float64_mode():
            report, shapes, grads = spy_train(monkeypatch, self.CFG, instances)
            # the reference: every anchor, then its partner, in one graph
            pt = _as_param_tensors(build_network(self.CFG))
            items = instances + [instances[i ^ 1] for i in range(len(instances))]
            batch, lens = _batch_array([it.features for it in items], self.CFG)
            emb, logits = _forward_graph(pt, self.CFG, tk.Tensor(batch), lens)
            targets = [it.word_id for it in items]
            loss, ce, mse = total_loss(logits, emb, targets, self.CFG.layout, 0.8)
            loss.backward()
        # 4 pairs each; the shorter half is padded to 9 frames, not 14
        assert [s[0] for s in shapes] == [8, 8] and [s[-1] for s in shapes] == [9, 14]
        (epoch,) = report.epochs
        np.testing.assert_allclose(
            [epoch.total_loss, epoch.ce_loss, epoch.mse_loss],
            [float(loss.value), ce, mse],
            rtol=1e-12,
        )
        for name, g in grads.items():
            np.testing.assert_allclose(g, pt[name].grad, rtol=1e-12, err_msg=name)

    def test_final_batch_of_one_pair_is_one_graph(self, monkeypatch):
        instances = word_pairs([(5, 14), (9, 7), (12, 6), (8, 8)])
        cfg = dataclasses.replace(self.CFG, epochs=2, batch_size=7)
        with tk.float64_mode():
            report, shapes, _ = spy_train(monkeypatch, cfg, instances)
        assert [s[0] for s in shapes] == [8, 6, 2] * 2
        assert all(np.isfinite(e.total_loss) for e in report.epochs)

    def test_pairs_of_one_length(self, monkeypatch):
        instances = word_pairs([(7, 7)] * 4)
        with tk.float64_mode():
            report, shapes, _ = spy_train(monkeypatch, self.CFG, instances)
        assert shapes == [(8, 1, 6, 7)] * 2
        assert np.isfinite(report.epochs[0].total_loss)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        params = build_network(TINY)
        path = tmp_path / "m.awem"
        save_model(params, TINY, path)
        loaded, cfg = load_model(path)
        assert cfg == TINY
        assert set(loaded) == set(params)
        for n in params:
            np.testing.assert_array_equal(loaded[n], params[n].astype(np.float32))

    def test_embeddings_survive_round_trip(self, tmp_path):
        params = build_network(TINY)
        path = tmp_path / "m.awem"
        save_model(params, TINY, path)
        loaded, cfg = load_model(path)
        batch = seqs([10], seed=9)
        np.testing.assert_allclose(
            forward(params, TINY, batch)[0], forward(loaded, cfg, batch)[0], atol=1e-6
        )

    def test_file_layout(self, tmp_path):
        params = build_network(TINY)
        path = tmp_path / "m.awem"
        save_model(params, TINY, path)
        header = json.loads((tmp_path / "m.json").read_text())
        names = sorted(params)
        assert header["tensors"] == [[n, list(params[n].shape)] for n in names]
        assert codec.load(ModelConfig, header["config"]) == TINY
        flat = blobio.read_record(tmp_path, header)
        assert header["blob"] == "m.awem" and flat.shape == (1, header["cols"])
        np.testing.assert_array_equal(flat[0], np.concatenate([params[n].ravel() for n in names]))

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "m.awem"
        save_model(build_network(TINY), TINY, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            load_model(path)

    def test_flipped_byte(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit,fragment",
        [
            (lambda text: text.replace('"', "\xff", 1), "UnicodeDecodeError"),
            (lambda text: text[:-5], "JSONDecodeError"),
            (lambda text: text.replace('"config": {', '"config": {"x": 1, ', 1), "'model.x'"),
            (lambda text: text.replace('"crc32"', '"crc"', 1), "KeyError('crc32')"),
            (lambda text: text.replace('"m.awem"', '"n.awem"', 1), "names blob 'n.awem'"),
            (None, "FileNotFoundError"),
        ],
        ids=["not-utf8", "not-json", "unknown-key", "no-crc32", "other-blob", "missing"],
    )
    def test_corrupt_config_header(self, tmp_path, edit, fragment):
        header = self.saved(tmp_path).with_suffix(".json")
        if edit is None:
            header.unlink()
        else:
            header.write_bytes(edit(header.read_text()).encode("latin-1"))
        message = r"model header \S+m\.json is not valid: .*" + re.escape(fragment)
        with pytest.raises(FormatError, match=message):
            load_model(tmp_path / "m.awem")

    def test_tensor_table_mismatch(self, tmp_path):
        header = self.saved(tmp_path).with_suffix(".json")
        index = json.loads(header.read_text())
        assert index["tensors"][1] == ["fc.b", [5]]
        index["tensors"][1][1] = [9]
        header.write_text(json.dumps(index))
        message = r"tensor 'fc\.b' has shape \[9\] in the header"
        with pytest.raises(IncompatibleModelError, match=message):
            load_model(tmp_path / "m.awem")

    def test_size_mismatch(self, tmp_path):
        # a blob and record that agree, but hold one value more than the tensors
        path = self.saved(tmp_path)
        header = json.loads(path.with_suffix(".json").read_text())
        flat = blobio.read_record(tmp_path, header)
        header.update(blobio.write_record(tmp_path, "m.awem", np.append(flat, 1.0)[None, :]))
        path.with_suffix(".json").write_text(json.dumps(header))
        with pytest.raises(IncompatibleModelError, match="holds .* values, its tensors"):
            load_model(path)

    def test_config_weight_mismatch(self, tmp_path):
        # saved weights for one config, header claims another shape
        params = build_network(TINY)
        other = dataclasses.replace(TINY, num_classes_per_language=(4, 4))
        path = tmp_path / "m.awem"
        save_model(params, other, path)
        with pytest.raises(IncompatibleModelError, match="fc"):
            load_model(path)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    directory = tmp_path_factory.mktemp("model")
    save_model(build_network(TINY), TINY, directory / "m.awem")
    return directory, (directory / "m.json").read_text(), (directory / "m.awem").read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_model_raises_only_typed_errors(saved_model, data):
    """Drop one key or replace one value of the header or of its config,
    or flip or cut bytes of the blob."""
    directory, text, raw = saved_model
    header = json.loads(text)
    damage = data.draw(st.sampled_from(["header", "config", "flip", "cut"]), label="damage")
    if damage in ("header", "config"):
        holder = header if damage == "header" else header["config"]
        key = data.draw(st.sampled_from(sorted(holder)), label="key")
        if data.draw(st.booleans(), label="drop"):
            del holder[key]
        else:
            holder[key] = data.draw(json_trees, label="value")
    elif damage == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        raw = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]
    else:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    (directory / "m.json").write_text(json.dumps(header))
    (directory / "m.awem").write_bytes(raw)
    try:
        load_model(directory / "m.awem")
    except AwekitError:
        pass
