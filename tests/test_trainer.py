import gc
import math
import multiprocessing
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import ALLOWED_CPUS, arena

from dialoglm import cli, corpus, metrics, numeric, synthetic, trainer
from dialoglm.corpus import Dialogue, build_vocab, dialogue_from_words, write_corpus_words
from dialoglm.errors import DataError, NumericalError
from dialoglm.models import load_checkpoint, make_model, save_checkpoint, seq2seq_pair
from dialoglm.numeric import clip_global_norm, zero_grads
from dialoglm.trainer import (BETA1, BETA2, EPS, AdamState, TrainConfig, adam_update,
                              pretrain_finetune, train)


def tiny_corpus(n, seed, **kw):
    tc = synthetic.topical(n, seed=seed, n_topics=2, words_per_topic=6,
                           n_function=4, **kw)
    vocab = build_vocab((t for d in tc.dialogues for t in d), 100)
    return [dialogue_from_words(d, vocab) for d in tc.dialogues], vocab


KINDS = ["rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn"]


def _loss_and_grads(model, kind, rng):
    tokens = [int(t) for t in rng.integers(0, 17, size=9)]
    return (model.loss_and_grads(tokens[:4], tokens[4:]) if kind.startswith("seq2seq")
            else model.loss_and_grads(tokens))


class TestAdam:
    def _state(self, params, lr=0.1):
        return AdamState(params, lr=lr)

    def test_zero_gradient_leaves_params(self):
        rng = np.random.default_rng(0)
        params = arena(w=rng.normal(size=(3, 3)))
        before = params["w"].copy()
        state = self._state(params)
        adam_update(state, params, arena(w=np.zeros((3, 3))), None)
        np.testing.assert_array_equal(params["w"], before)
        # after a real step, zero gradients decay the moments toward zero
        adam_update(state, params, arena(w=np.ones((3, 3))), None)
        m1 = np.abs(state.m["w"]).max()
        v1 = state.v["w"].max()
        adam_update(state, params, arena(w=np.zeros((3, 3))), None)
        assert np.abs(state.m["w"]).max() < m1
        assert state.v["w"].max() < v1

    def test_single_step_hand_trace(self):
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
        params = arena(w=np.array([1.0, -2.0]))
        g = np.array([0.3, -0.7])
        state = AdamState(params, lr=0.01)
        adam_update(state, params, arena(w=g), None)
        # first step: m_hat = g, v_hat = g^2, delta = lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, atol=1e-12)
        assert state.t == 1

    def test_constant_gradient_magnitude_approaches_lr(self):
        params = arena(w=np.array([0.0]))
        state = AdamState(params, lr=0.05)
        prev = params["w"].copy()
        for _ in range(300):
            prev = params["w"].copy()
            adam_update(state, params, arena(w=np.array([3.7])), None)
        assert abs(abs(params["w"][0] - prev[0]) - 0.05) < 1e-4

    def test_non_finite_gradient_rejected(self):
        # adam_update takes finite gradients: the clip before it finds a
        # non-finite one and names the first array that holds it
        for bad in (np.nan, np.inf, -np.inf):
            grads = arena(u=np.array([0.5]), v=np.array([1.0, bad]), w=np.array([bad]))
            with pytest.raises(NumericalError, match="non-finite gradient for parameter 'v'"):
                clip_global_norm(grads, 5.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_norm_of_finite_gradients_clips_to_zero(self):
        grads = arena(v=np.array([1e200, 1e200]), w=np.array([1.0]))
        params = arena(v=np.ones(2), w=np.ones(1))
        assert clip_global_norm(grads, 5.0) == (np.inf, 0.0)
        adam_update(AdamState(params), params, grads, 0.0)
        assert not grads.flat.any() and (params.flat == 1.0).all()

    @staticmethod
    def _assert_matches_reference(kind, d=6, n_vocab=17):
        # the one-divide form, one fresh array per operation
        def reference(state, params, grads):
            state.t += 1
            b1, b2 = BETA1, BETA2
            root = math.sqrt(1.0 - b2 ** state.t)
            lr_t, eps_t = state.lr * root / (1.0 - b1 ** state.t), EPS * root
            for name, p in params.items():
                g = grads[name]
                state.m[name][...] = b1 * state.m[name] + (1.0 - b1) * g
                state.v[name][...] = b2 * state.v[name] + (1.0 - b2) * (g * g)
                p -= lr_t * state.m[name] / (np.sqrt(state.v[name]) + eps_t)

        rng = np.random.default_rng(3)
        model = make_model(kind, d, 5, n_vocab, n_topics=3, seed=4)
        ref = {k: v.copy() for k, v in model.params.items()}
        state, ref_state = AdamState(model.params, lr=0.01), AdamState(ref, lr=0.01)
        for _ in range(5):
            _, grads = _loss_and_grads(model, kind, rng)
            adam_update(state, model.params, grads, None)
            reference(ref_state, ref, grads)
            for name in ref:
                assert model.params[name].tobytes() == ref[name].tobytes()
                assert state.m[name].tobytes() == ref_state.m[name].tobytes()
                assert state.v[name].tobytes() == ref_state.v[name].tobytes()
        return model

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_place_update_is_bit_exact(self, kind):
        self._assert_matches_reference(kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d, n_vocab, block", [(6, 17, 64), (64, 2000, 4096)])
    def test_two_lanes_are_bit_exact(self, kind, d, n_vocab, block, monkeypatch, two_cpus):
        # blocks shared between the two lanes; blocks of 4,096 entries run
        # long enough without the interpreter lock to overlap
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        model = self._assert_matches_reference(kind, d, n_vocab)
        assert model.params.flat.size > 2 * block and two_cpus

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_divide_form_matches_textbook(self, kind):
        # 200 steps on one gradient sequence: each step of the one-divide form
        # against the textbook lr m_hat / (sqrt(v_hat) + eps), taken from the
        # same moments, within 1e-12 relative entry by entry
        rng = np.random.default_rng(8)
        model = make_model(kind, 6, 5, 17, n_topics=3, seed=2)
        state = AdamState(model.params, lr=0.01)
        m = v = np.zeros(model.params.flat.size)
        for t in range(1, 201):
            _, grads = _loss_and_grads(model, kind, rng)
            g = grads.flat
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            m_hat, v_hat = m / (1.0 - BETA1 ** t), v / (1.0 - BETA2 ** t)
            step = zero_grads(model.params)  # 0 - step is exact: the arena ends as -step
            adam_update(state, step, grads, None)
            np.testing.assert_allclose(-step.flat, 0.01 * m_hat / (np.sqrt(v_hat) + EPS),
                                       rtol=1e-12, atol=0)
            model.params.flat += step.flat
        assert state.m.flat.tobytes() == m.tobytes() and state.v.flat.tobytes() == v.tobytes()

    def test_blocks_change_no_bit(self, monkeypatch):
        # one block over the whole vector, and blocks that split arrays
        rng = np.random.default_rng(5)
        models = [make_model("arnn", 6, 5, 17, seed=4) for _ in range(2)]
        states = [AdamState(models[0].params, lr=0.01)]
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 7)
        states.append(AdamState(models[1].params, lr=0.01))
        for _ in range(3):
            _, grads = models[0].loss_and_grads([int(t) for t in rng.integers(0, 17, size=9)])
            for block, model, state in zip((10**9, 7), models, states):
                monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
                adam_update(state, model.params, grads, None)
        assert models[0].params.flat.tobytes() == models[1].params.flat.tobytes()
        assert states[0].v.flat.tobytes() == states[1].v.flat.tobytes()

    def test_step_counter_increments(self):
        params = arena(w=np.zeros(2))
        state = AdamState(params)
        for i in range(1, 4):
            adam_update(state, params, arena(w=np.ones(2)), None)
            assert state.t == i


def _frozen_clip_then_adam(state, params, grads, max_norm):
    """The clip and the Adam step as two passes, as they were before the
    clip's scale moved into Adam's blocks: the clip scaled ``grads`` in
    place, and Adam then read them."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        np.multiply(grads.flat, max_norm / norm, out=grads.flat)
    state.t += 1
    root = math.sqrt(1.0 - BETA2 ** state.t)
    lr_t, eps_t = state.lr * root / (1.0 - BETA1 ** state.t), EPS * root
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    step, denom = np.empty(p.size), np.empty(p.size)
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=step)
    v *= BETA2
    np.multiply(g, g, out=step)
    step *= 1.0 - BETA2
    v += step
    np.sqrt(v, out=denom)
    denom += eps_t
    np.multiply(m, lr_t, out=step)
    step /= denom
    p -= step


class TestClipScaleInAdam:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d, n_vocab", [(8, 20), (64, 2000)])
    @pytest.mark.parametrize("max_norm, spread, scaled", [(1e9, 1.0, None), (0.01, 1.0, "finite"),
                                                          (1.0, 1e200, 0.0)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_equals_clip_then_adam(self, kind, d, n_vocab, max_norm, spread, scaled, two_cpus):
        # no clipping, a finite scale, and the scale 0.0 of a norm that
        # overflows from finite entries; at d 64, V 2,000 Adam's blocks run on
        # two lanes
        model = make_model(kind, d, 8, n_vocab, n_topics=3, seed=4)
        ref = zero_grads(model.params)
        ref.flat[:] = model.params.flat
        state, ref_state = AdamState(model.params, lr=0.01), AdamState(ref, lr=0.01)
        rng = np.random.default_rng(d)
        for _ in range(3):
            _, grads = _loss_and_grads(model, kind, rng)
            grads.flat *= spread
            ref_grads = zero_grads(grads)
            ref_grads.flat[:] = grads.flat
            _, scale = clip_global_norm(grads, max_norm, state.scratch)
            adam_update(state, model.params, grads, scale)
            _frozen_clip_then_adam(ref_state, ref, ref_grads, max_norm)
            assert scale == scaled if scaled != "finite" else 0.0 < scale < 1.0
            for got, want in ((model.params, ref), (state.m, ref_state.m),
                              (state.v, ref_state.v), (grads, ref_grads)):
                assert got.flat.tobytes() == want.flat.tobytes()
        assert (len(two_cpus) > 0) == (d == 64)


class TestTwoLanes:
    def test_a_clipped_arnn_step_makes_three_hand_offs(self, two_cpus):
        # at the benchmark's size: the attention blocks, the output products
        # and Adam's blocks
        model = make_model("arnn", 64, 64, 2000, seed=1)
        tokens = [int(t) for t in np.random.default_rng(0).integers(0, 2000, 78)]
        grads, adam = zero_grads(model.params), AdamState(model.params)
        model.loss_and_grads(tokens, grads=grads)
        _, scale = clip_global_norm(grads, 1.0, adam.scratch)
        adam_update(adam, model.params, grads, scale)
        assert scale is not None and len(two_cpus) == 3

    def test_the_worker_keeps_no_model_or_state_alive(self, monkeypatch, two_cpus):
        # a worker that kept its last job's arguments kept a finished run's
        # AdamState and arenas (8 MB at the benchmark's size) until the next job
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 64)
        monkeypatch.setattr(numeric, "LANE_MIN", 0)
        model = make_model("arnn", 6, 5, 17, seed=4)
        state = AdamState(model.params, lr=0.01)
        _, grads = model.loss_and_grads([1, 2, 3, 4, 5])
        adam_update(state, model.params, grads, None)
        # the output products, then Adam's blocks (the four queries form one
        # attention block)
        assert len(two_cpus) == 2
        refs = [weakref.ref(model), weakref.ref(state), weakref.ref(grads)]
        del model, state, grads
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    @pytest.mark.usefixtures("two_cpus")
    def test_a_forked_child_steps_on_its_own_worker(self, monkeypatch, fresh_worker):
        # and that worker keeps off the CPU of the child's calling thread
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 64)
        model = make_model("arnn", 6, 5, 17, seed=4)
        state = AdamState(model.params, lr=0.01)
        _, grads = model.loss_and_grads([1, 2, 3, 4, 5])
        adam_update(state, model.params, grads, None)  # the parent's worker is running
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            adam_update(state, model.params, grads, None)
            [worker] = [t for t in threading.enumerate() if t.name == "dialoglm-lane"]
            pinned = numeric.lane_cpus()
            send.send((fresh_worker, threading.get_native_id(), pinned,
                       pinned and sorted(os.sched_getaffinity(worker.native_id))))
            send.send_bytes(model.params.flat.tobytes())

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        try:
            assert recv.poll(60), "the child's two-lane step did not finish"
            reads, caller, pinned, worker_affinity = recv.recv()
            got = recv.recv_bytes()
            proc.join(60)
        finally:
            if proc.is_alive():
                proc.kill()
        assert proc.exitcode == 0
        adam_update(state, model.params, grads, None)
        assert got == model.params.flat.tobytes()
        if len(ALLOWED_CPUS) < 2:  # no worker is pinned
            assert reads == [] and pinned is None
            return
        # the parent's hand-offs read the parent's CPU, the child's the child's
        parent = threading.get_native_id()
        readers = [tid for _, tid in reads]
        k = readers.index(caller)
        assert 0 < k and set(readers[:k]) == {parent} and set(readers[k:]) == {caller}
        assert pinned == worker_affinity
        assert pinned in [sorted(ALLOWED_CPUS - {cpu}) for cpu, tid in reads[k:]]

    @pytest.mark.parametrize("kind", ["arnn", "seq2seq_attn"])
    def test_tier1_sized_training_hands_nothing_to_the_worker(self, kind, monkeypatch):
        # criterion 6's d and d_e: every block of work, in training and in
        # evaluation, is below a hand-off's cost
        def refuse():
            raise AssertionError("handed off")

        monkeypatch.setattr(numeric, "_cpus", lambda: 2)
        monkeypatch.setattr(numeric, "_second_lane", refuse)
        dlgs, vocab = tiny_corpus(8, seed=5)
        model = make_model(kind, 24, 16, vocab.size, seed=0)
        assert model.params.flat.size < trainer.ADAM_BLOCK
        res = train(model, dlgs[:6], dlgs[6:], TrainConfig(max_epochs=2, seed=0))
        assert [e.epoch for e in res.log] == [1, 2]
        assert metrics.evaluate(res.model, dlgs).counts["dialogues"] == 8


class TestStepAllocations:
    @pytest.mark.parametrize("kind", ["rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn"])
    def test_warm_step_allocates_less_than_one_row_block(self, kind):
        # a step into a given arena, after one warm-up step, at d = 8, V = 2,000:
        # its peak stays below one (n, V) block of the n scored positions. A
        # fresh gradient arena, logits, exp and dlogits rows and the (d, V)
        # product took 1,532 KB for arnn and 843 KB for seq2seq_attn.
        n_vocab = 2000
        model = make_model(kind, 8, 8, n_vocab, n_topics=4, seed=1)
        tokens = [int(t) for t in np.random.default_rng(0).integers(0, n_vocab, 30)]
        args = (tokens[:20], tokens[20:]) if kind.startswith("seq2seq") else (tokens,)
        grads, adam = zero_grads(model.params), AdamState(model.params)
        scratch = np.empty(2 * max(g.size for g in grads.values()))

        def step():
            model.loss_and_grads(*args, grads=grads)
            _, scale = clip_global_norm(grads, 5.0, scratch)
            adam_update(adam, model.params, grads, scale)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(args[-1]) * n_vocab * 8

    def test_long_arnn_warm_step_forms_no_fresh_tape(self):
        # an arnn step at the benchmark's d = 64, V = 2,000 on a 40-turn
        # dialogue (n = 320): its attention tape, about n^2 d / 2 entries
        # (25 MiB), lies in the model's reused buffer. A tape allocated per
        # step peaked at 29.4 MiB; the buffer leaves 3.4 MiB, the (n, n)
        # weights and (n, d)-sized arrays of the attention backward.
        n_vocab, n = 2000, 320
        model = make_model("arnn", 64, 64, n_vocab, seed=1)
        tokens = [int(t) for t in np.random.default_rng(0).integers(0, n_vocab, n)]
        grads, adam = zero_grads(model.params), AdamState(model.params)
        scratch = np.empty(2 * max(g.size for g in grads.values()))

        def step():
            model.loss_and_grads(tokens, grads=grads)
            _, scale = clip_global_norm(grads, 5.0, scratch)
            adam_update(adam, model.params, grads, scale)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("kind", KINDS)
    def test_clip_with_a_scratch_allocates_no_array(self, kind):
        # at the benchmark's d = 64, V = 2,000 the squares of the (d, V)
        # output and embedding gradients took 1,001 KB before they went
        # to a scratch; the norm keeps its bits
        model = make_model(kind, 64, 64, 2000, n_topics=4, seed=1)
        grads = zero_grads(model.params)
        grads.flat[:] = np.random.default_rng(0).normal(size=grads.flat.size)
        scratch = np.empty(2 * max(g.size for g in grads.values()))
        expected = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        tracemalloc.start()
        try:
            norm, scale = clip_global_norm(grads, 1e9, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm == expected and scale is None
        assert peak < 4096


class TestTrain:
    def test_overfits_single_dialogue(self):
        d = Dialogue(((0, tuple(range(6, 12))), (1, tuple(range(12, 17)))))
        cfg = TrainConfig(lr=3e-3, max_epochs=200, patience=200, seed=0)
        res = train(make_model("rnn", 12, 8, 20, seed=0), [d], [d], cfg)
        assert metrics.evaluate(res.model, [d]).values["ppl"] < 1.5
        # training loss strictly decreases in >= 95% of recorded intervals
        losses = [e.train_loss for e in res.log]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert drops / (len(losses) - 1) >= 0.95

    def test_zero_learning_rate_is_a_null_update(self):
        dlgs, vocab = tiny_corpus(6, seed=1)
        cfg = TrainConfig(lr=0.0, max_epochs=1, patience=5, seed=3)
        fresh = make_model("rnn", 8, 6, vocab.size, seed=3)
        res = train(make_model("rnn", 8, 6, vocab.size, seed=3), dlgs[:4], dlgs[4:], cfg)
        for k in fresh.params:
            np.testing.assert_array_equal(res.model.params[k], fresh.params[k])

    def test_fixed_seed_bitwise_identical(self, tmp_path):
        dlgs, vocab = tiny_corpus(10, seed=2)
        cfg = TrainConfig(lr=1e-3, max_epochs=3, patience=5, seed=7)
        paths = []
        for run in range(2):
            res = train(make_model("arnn", 8, 6, vocab.size, seed=7), dlgs[:8], dlgs[8:], cfg)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, res.model, vocab.sha256())
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_best_checkpoint_semantics(self):
        dlgs, vocab = tiny_corpus(12, seed=3)
        cfg = TrainConfig(lr=5e-3, max_epochs=12, patience=3, seed=1)
        res = train(make_model("rnn", 8, 6, vocab.size, seed=1), dlgs[:10], dlgs[10:], cfg)
        best_seen = math.inf
        for entry in res.log:
            assert entry.best == (entry.dev_ppl < best_seen)
            best_seen = min(best_seen, entry.dev_ppl)
        # returned model is the best-dev checkpoint
        got = metrics.evaluate(res.model, dlgs[10:]).values["ppl"]
        assert abs(got - min(e.dev_ppl for e in res.log)) < 1e-9

    def test_early_stopping_respects_patience(self):
        dlgs, vocab = tiny_corpus(8, seed=4)
        cfg = TrainConfig(lr=0.0, max_epochs=50, patience=3, seed=2)
        res = train(make_model("rnn", 8, 6, vocab.size, seed=2), dlgs[:6], dlgs[6:], cfg)
        # lr 0 never improves after the first eval: 1 + patience evals total
        assert len(res.log) == 1 + 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_sequence(self):
        dlgs, vocab = tiny_corpus(6, seed=5)
        bad = make_model("rnn", 8, 6, vocab.size, seed=0)
        bad.params["O"][:] = np.inf
        cfg = TrainConfig(max_epochs=1, seed=0)
        with pytest.raises(NumericalError, match="sequence"):
            train(bad, dlgs[:4], dlgs[4:], cfg)

    def test_non_finite_gradient_of_a_finite_loss_names_the_array(self):
        dlgs, vocab = tiny_corpus(6, seed=5)
        model = make_model("arnn", 8, 6, vocab.size, seed=0)
        real = model.example_loss_and_grads

        def planted(ex, grads=None):
            loss, grads = real(ex, grads)
            grads["Oz"][1, 2] = np.nan
            return loss, grads

        model.example_loss_and_grads = planted
        with pytest.raises(NumericalError, match=r"^epoch 1, train sequence \d+: "
                                                 "non-finite gradient for parameter 'Oz'$"):
            train(model, dlgs[:4], dlgs[4:], TrainConfig(max_epochs=1, seed=0))

    def test_empty_splits_rejected(self):
        dlgs, vocab = tiny_corpus(4, seed=6)
        cfg = TrainConfig(max_epochs=1)
        model = make_model("rnn", 8, 6, vocab.size)
        with pytest.raises(DataError):
            train(model, [], dlgs, cfg)
        with pytest.raises(DataError):
            train(model, dlgs, [], cfg)

    def test_log_line_format(self):
        dlgs, vocab = tiny_corpus(6, seed=7)
        cfg = TrainConfig(max_epochs=2, seed=0)
        lines = []
        train(make_model("rnn", 8, 6, vocab.size), dlgs[:4], dlgs[4:], cfg, log_lines=lines)
        assert len(lines) == 2
        fields = lines[0].split(", ")
        assert len(fields) == 5
        int(fields[0]); int(fields[1]); float(fields[2]); float(fields[3])
        assert fields[4] in ("0", "1")

    def test_eval_interval_skips_epochs(self):
        # dev evaluations every second epoch and after the last one
        dlgs, vocab = tiny_corpus(8, seed=7)
        cfg = TrainConfig(max_epochs=5, patience=5, eval_interval=2, seed=0)
        res = train(make_model("rnn", 8, 6, vocab.size), dlgs[:6], dlgs[6:], cfg)
        assert [e.epoch for e in res.log] == [2, 4, 5]
        assert [e.seen for e in res.log] == [12, 24, 30]


def _score_fields(s):
    """A SequenceScore's arrays (its attention weights too) as their bytes."""
    return s.per_token.tobytes(), s.argmax.tobytes(), None if s.A is None else s.A.tobytes()


class TestOneScoringPath:
    """score_dialogue, evaluation and the trainer's dev pass all score what a
    kind's make_example says it scores of a dialogue."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_score_paths_agree(self, kind):
        dlgs, vocab = tiny_corpus(8, seed=13)
        model = make_model(kind, 8, 6, vocab.size, n_topics=3, seed=2)
        for d in dlgs:
            ex = model.make_example(d)
            if kind.startswith("seq2seq"):
                assert (ex.source, ex.target) == seq2seq_pair(d)
                assert ex.last == slice(0, len(ex.target))
            else:
                assert ex.source is None and ex.target == corpus.flatten(d)
                assert ex.last == slice(*corpus.last_utterance_span(d))
            assert _score_fields(model.score_dialogue(d)) == _score_fields(model.example_score(ex))
        res = train(model, dlgs[:6], dlgs[6:], TrainConfig(max_epochs=1, seed=2))
        assert res.log[0].dev_ppl == metrics.evaluate(model, dlgs[6:]).values["ppl"]


class TestPretrainFinetune:
    def test_empty_pretrain_equals_plain_train(self, tmp_path):
        dlgs, vocab = tiny_corpus(10, seed=8)
        cfg = TrainConfig(max_epochs=2, seed=4)
        a = pretrain_finetune(make_model("rnn", 8, 6, vocab.size, seed=4), ([], []),
                              (dlgs[:8], dlgs[8:]), cfg)
        b = train(make_model("rnn", 8, 6, vocab.size, seed=4), dlgs[:8], dlgs[8:], cfg)
        for k in a.model.params:
            np.testing.assert_array_equal(a.model.params[k], b.model.params[k])

    def test_transfer_helps_directionally(self):
        # pretrain on a large same-distribution corpus, fine-tune on a small
        # target: dev PPL should not be worse than training from scratch
        big, vocab = tiny_corpus(120, seed=9)
        small = big[:10]
        dev = big[110:]
        cfg = TrainConfig(lr=3e-3, max_epochs=4, patience=4, seed=5)
        scratch = train(make_model("rnn", 10, 8, vocab.size, seed=5), small, dev, cfg)
        transferred = pretrain_finetune(make_model("rnn", 10, 8, vocab.size, seed=5),
                                        (big[10:100], big[100:110]), (small, dev), cfg)
        assert transferred.best_dev_ppl <= scratch.best_dev_ppl

    def test_phase_checkpoint_resumes(self, tmp_path):
        dlgs, vocab = tiny_corpus(10, seed=11)
        cfg = TrainConfig(max_epochs=1, seed=0)
        phase1 = train(make_model("rnn", 8, 6, vocab.size), dlgs[:5], dlgs[8:], cfg)
        path = tmp_path / "p1.ckpt"
        save_checkpoint(path, phase1.model, vocab.sha256())
        resumed = load_checkpoint(path, expect_vocab_sha256=vocab.sha256())
        res = train(resumed, dlgs[5:8], dlgs[8:], cfg)
        assert np.isfinite(res.best_dev_ppl)


class TestConfig:
    def test_cli_d_e_defaults_to_d(self, tmp_path):
        tc = synthetic.topical(6, seed=12, n_topics=2, words_per_topic=6, n_function=4)
        corpus_path = tmp_path / "c.txt"
        write_corpus_words(corpus_path, tc.dialogues)
        build_vocab((t for d in tc.dialogues for t in d), 100).save(tmp_path / "vocab.txt")
        out = tmp_path / "run"
        assert cli.main(["train", "--train", str(corpus_path), "--dev", str(corpus_path),
                         "--vocab", str(tmp_path / "vocab.txt"), "--out", str(out),
                         "--kind", "rnn", "--d", "7", "--epochs", "1"]) == 0
        model = load_checkpoint(out / "model.ckpt")
        assert (model.d, model.d_e) == (7, 7)

    def test_rejects_nonpositive(self):
        for dims in ((0, 6, 20), (8, 0, 20), (8, 6, 0)):
            with pytest.raises(DataError, match="must be positive"):
                make_model("rnn", *dims)
        with pytest.raises(DataError, match="K must be positive"):
            make_model("tarnn", 8, 6, 20, n_topics=0)
        with pytest.raises(DataError):
            TrainConfig(max_epochs=-1)
        with pytest.raises(DataError):
            TrainConfig(clip=0.0)
