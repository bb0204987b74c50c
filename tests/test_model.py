"""Whole-model wiring: three views, ablation switches, init isolation, and the
eval-mode forward that runs each image alone, spread over the process's CPUs."""

import dataclasses
import gc
import hashlib
import os
import threading
import weakref

import numpy as np
import pytest

import helpers
from coopseg import tensor as T
from coopseg.config import ConfigError, RunConfig, toy_config
from coopseg.model import SegmentationModel, ViewOutputs
from coopseg.tensor import ShapeError, Tensor, idle_cpus
from coopseg.train import view_loss
from coopseg.transformer import TransformerBranch


def tiny_cfg(**kw):
    base = dict(
        image_size=32, d_model=48, heads=6, stem_channels=4, stage_units=1,
        c4=8, c8=12, c16=16, batch_size=2, synth_samples=2, epochs=2,
    )
    base.update(kw)
    return toy_config(**base)


def tiny_batch(cfg, n=2, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 3, cfg.image_size, cfg.image_size))
    return Tensor(x.astype(np.float32))


ABLATIONS = [(True, True), (True, False), (False, True), (False, False)]


class TestForwardContract:
    def test_view_shapes_and_range(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg).eval()
        outs = model(tiny_batch(cfg))
        for view in outs:
            assert view.shape == (2, 1, 32, 32)
            assert view.data.dtype == np.float32
            assert view.data.min() >= 0.0 and view.data.max() <= 1.0

    def test_view_names_match_tuple_order(self):
        assert ViewOutputs._fields == ("transformer", "cnn", "fusion")
        cfg = tiny_cfg()
        outs = SegmentationModel(cfg).eval()(tiny_batch(cfg))
        assert tuple(outs) == (outs.transformer, outs.cnn, outs.fusion)

    def test_views_are_pairwise_distinct_at_init(self):
        cfg = tiny_cfg()
        outs = SegmentationModel(cfg).eval()(tiny_batch(cfg))
        views = [v.data for v in outs]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(views[i] - views[j]).max() > 1e-6

    def test_forward_is_deterministic(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg).eval()
        x = tiny_batch(cfg)
        a, b = model(x), model(x)
        for u, v in zip(a, b):
            assert np.array_equal(u.data, v.data)

    def test_seed_changes_outputs(self):
        cfg0, cfg1 = tiny_cfg(seed=0), tiny_cfg(seed=1)
        x = tiny_batch(cfg0)
        a = SegmentationModel(cfg0).eval()(x)
        b = SegmentationModel(cfg1).eval()(x)
        for u, v in zip(a, b):
            assert np.abs(u.data - v.data).max() > 1e-6

    def test_config_divisibility(self):
        # the model validates its config, so a config built without validation
        # still cannot reach the attention heads
        with pytest.raises(ConfigError, match="divisible"):
            SegmentationModel(RunConfig(d_model=10, heads=3))

    def test_view_weights_buffer_starts_uniform(self):
        model = SegmentationModel(tiny_cfg())
        buffers = dict(model.named_buffers())
        assert np.array_equal(buffers["view_weights"], np.full(3, 1.0 / 3.0))

    def test_training_forward_never_reads_running_buffers(self):
        # why gradcheck restores nothing between evaluations of a training-mode model
        cfg = tiny_cfg(dtype="float64")
        model = SegmentationModel(cfg).train()
        x = Tensor(tiny_batch(cfg).data.astype(np.float64))
        masks = Tensor((np.random.default_rng(3).random((2, 1, 32, 32)) > 0.5).astype(np.float64))

        def losses():
            return [view_loss(pre, masks).item() for pre in model(x)]

        before = losses()
        for name, buf in model.named_buffers():
            if name.endswith("running_mean"):
                buf[...] = 123.0
            elif name.endswith("running_var"):
                buf[...] = 1e-3
        assert losses() == before


@pytest.fixture(scope="module")
def combo_outputs():
    cfg = tiny_cfg()
    x = tiny_batch(cfg)
    outs = {}
    for glff, dfm in ABLATIONS:
        c = tiny_cfg(glff_on=glff, dfm_on=dfm)
        outs[(glff, dfm)] = SegmentationModel(c).eval()(x)
    return outs


class TestAblationSwitches:

    def test_fusion_view_distinct_across_combos(self, combo_outputs):
        keys = list(combo_outputs)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                a = combo_outputs[keys[i]].fusion.data
                b = combo_outputs[keys[j]].fusion.data
                assert np.abs(a - b).max() > 1e-6, (keys[i], keys[j])

    def test_branch_views_unaffected_by_switches(self, combo_outputs):
        # toggling the fusion path must not touch the other two views
        base = combo_outputs[(True, True)]
        for key, outs in combo_outputs.items():
            assert np.array_equal(outs.transformer.data, base.transformer.data), key
            assert np.array_equal(outs.cnn.data, base.cnn.data), key

    def test_shapes_hold_for_every_combo(self, combo_outputs):
        for outs in combo_outputs.values():
            for view in outs:
                assert view.shape == (2, 1, 32, 32)
                assert view.data.min() >= 0.0 and view.data.max() <= 1.0


class TestInitIsolation:
    def test_branch_params_identical_across_fusion_toggles(self):
        # the branches draw from their own seed streams, so rewiring the
        # fusion path must leave their initial weights bitwise unchanged
        models = {combo: SegmentationModel(tiny_cfg(glff_on=combo[0], dfm_on=combo[1]))
                  for combo in ABLATIONS}
        base = dict(models[(True, True)].named_parameters())
        for combo, model in models.items():
            for name, p in model.named_parameters():
                if name.startswith(("transformer.", "head_t.", "cnn.", "head_c.")):
                    assert np.array_equal(p.data, base[name].data), (combo, name)

    def test_float32_params_are_the_float64_draw_cast_once(self):
        m32 = SegmentationModel(tiny_cfg(dtype="float32"))
        m64 = SegmentationModel(tiny_cfg(dtype="float64"))
        p64 = dict(m64.named_parameters())
        assert list(p64) == [name for name, _ in m32.named_parameters()]
        for name, p in m32.named_parameters():
            assert p.data.dtype == np.float32 and p64[name].data.dtype == np.float64, name
            assert p.data.tobytes() == p64[name].data.astype(np.float32).tobytes(), name
        for model in (m32, m64):
            assert all(b.dtype == np.float64 for _, b in model.named_buffers())
            assert model.cast(model.cfg.dtype) is model

    def test_the_transformer_casts_each_layer_as_it_is_drawn(self):
        """The state hashes as the float64 draw cast all at once, and building the branch
        never holds its whole float64 draw: at most one layer's, beside the float32 layers."""

        def state_hash(model):
            digest = hashlib.sha256()
            for name, a in model.named_state():
                digest.update(name.encode())
                digest.update(a.tobytes())
            return digest.hexdigest()

        cfg = toy_config(depth=12)
        cast_once = SegmentationModel(dataclasses.replace(cfg, dtype="float64")).cast(np.float32)
        assert state_hash(SegmentationModel(cfg)) == state_hash(cast_once)
        branch, peak = helpers.alloc_peak(lambda: TransformerBranch(cfg, np.random.default_rng(0)))
        float32_bytes = sum(p.data.nbytes for p in branch.parameters())
        assert all(p.data.dtype == np.float32 for p in branch.parameters())
        assert peak < 2 * float32_bytes  # the branch's float64 draw

    def test_dfm_toggle_swaps_decoder_for_plain_head(self):
        on = SegmentationModel(tiny_cfg(dfm_on=True))
        off = SegmentationModel(tiny_cfg(dfm_on=False))
        on_names = {name for name, _ in on.named_parameters()}
        off_names = {name for name, _ in off.named_parameters()}
        assert any(n.startswith("decoder.") for n in on_names)
        assert not any(n.startswith("decoder.") for n in off_names)
        assert any(n.startswith("head_f.") for n in off_names)


def saved_state(cfg):
    """A drawn model's state, copied as a checkpoint would hold it, with buffers that
    differ from a new model's."""
    state = {name: a.copy() for name, a in SegmentationModel(cfg).named_state()}
    state["view_weights"] = np.array([0.2, 0.3, 0.5])
    state["cnn.stem.bn.running_mean"] += 0.25
    return state


class TestFillFromState:
    """eval and predict fill the model from the checkpoint's state and draw nothing."""

    @pytest.mark.parametrize("cfg", [
        toy_config(), toy_config(dtype="float64"), toy_config(glff_on=False, dfm_on=False),
        RunConfig(),
    ], ids=["toy-float32", "toy-float64", "toy-no-fusion", "paper-float32"])
    def test_named_state_is_the_state_bitwise(self, cfg):
        state = saved_state(cfg)
        model = SegmentationModel(cfg, state)
        own = list(model.named_state())
        assert [name for name, _ in own] == list(state)
        for name, a in own:
            assert a.dtype == state[name].dtype, name
            assert a.tobytes() == state[name].tobytes(), name
            assert not np.shares_memory(a, state[name]), name

    def test_never_draws(self, monkeypatch):
        cfg = tiny_cfg()
        state = saved_state(cfg)

        def refuse(*args):
            raise AssertionError("a model filled from a state drew from a generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        SegmentationModel(cfg, state)

    def test_peak_memory_is_about_the_model_alone(self):
        """Zeros in the run's dtype stand in for the draw; drawing holds float64 arrays."""
        cfg = toy_config()
        state = saved_state(cfg)
        state_bytes = sum(a.nbytes for a in state.values())
        _, peak = helpers.alloc_peak(lambda: SegmentationModel(cfg, state))
        assert peak < 1.25 * state_bytes
        _, peak_drawn = helpers.alloc_peak(lambda: SegmentationModel(cfg))
        assert peak_drawn > 1.25 * state_bytes


@pytest.fixture
def thread_log(monkeypatch):
    """The thread of each ``_views`` call, with the batch size it was given."""
    log, real = [], SegmentationModel._views

    def views(model, image):
        log.append((threading.get_ident(), image.shape[0]))
        return real(model, image)

    monkeypatch.setattr(SegmentationModel, "_views", views)
    return log


class TestParallelEvalForward:
    @pytest.mark.parametrize("blas", [
        {},
        {"OPENBLAS_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4"},
        {"OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "12"},
    ])
    def test_idle_cpus_is_the_affinity_whatever_the_blas_threads(self, monkeypatch, blas):
        """BLAS runs on one thread whatever these variables say, so every CPU is idle."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in blas.items():
            monkeypatch.setenv(var, value)
        assert idle_cpus() == 6

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 3, 4])
    def test_views_equal_each_image_forwarded_alone(self, monkeypatch, thread_log, workers, batch):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg).eval()
        x = tiny_batch(cfg, n=batch)
        alone = [model._views(Tensor(x.data[i : i + 1])) for i in range(batch)]
        thread_log.clear()
        helpers.set_workers(monkeypatch, workers)
        helpers.pool_runs_every_queued_task(monkeypatch)
        outs = model(x)
        for k, view in enumerate(outs):
            assert view.shape == (batch, 1, 32, 32) and view.dtype == np.float32
            want = np.concatenate([a[k].data for a in alone])
            assert view.data.tobytes() == want.tobytes(), (ViewOutputs._fields[k], workers, batch)
        threads = {ident for ident, _ in thread_log}
        assert [b for _, b in thread_log] == [1] * batch
        # this thread takes a share; which pool thread takes which share is up to the pool
        assert threading.get_ident() in threads and len(threads) <= min(workers, batch)
        assert (len(threads) > 1) == (min(workers, batch) > 1)

    def test_a_worker_error_reaches_the_caller_unchanged(self, monkeypatch):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg).eval()
        raised, real, caller = [], SegmentationModel._views, threading.get_ident()

        def views(model, image):
            if threading.get_ident() == caller:
                return real(model, image)
            try:
                return real(model, Tensor(image.data[..., 1:, 1:]))  # a wrong-size image
            except ShapeError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(SegmentationModel, "_views", views)
        helpers.set_workers(monkeypatch, 2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        with pytest.raises(ShapeError, match="expected 3x32x32 image, got 3x31x31") as info:
            model(tiny_batch(cfg, n=4))
        assert raised and info.value is raised[0]  # the first image of the pool's share

    def test_a_forward_inside_a_step_takes_the_whole_batch_on_one_tape(self, monkeypatch,
                                                                     thread_log):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg).eval()
        helpers.set_workers(monkeypatch, 2)
        with T.step() as tape:
            outs = model(tiny_batch(cfg, n=4))
            assert len(tape) > 0 and all(node.tape is tape for node in tape.nodes)
            assert all(view.node is not None and view.node.tape is tape for view in outs)
        assert thread_log == [(threading.get_ident(), 4)]

    def test_a_training_model_takes_the_whole_batch(self, monkeypatch, thread_log):
        cfg = tiny_cfg()
        helpers.set_workers(monkeypatch, 2)
        SegmentationModel(cfg).train()(tiny_batch(cfg, n=4))
        assert thread_log == [(threading.get_ident(), 4)]

    def test_the_model_dies_with_its_last_reference(self, monkeypatch):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg).eval()
        helpers.set_workers(monkeypatch, 2)
        gc.disable()  # only reference counting may free it
        try:
            ref = weakref.ref(model)
            out = model(tiny_batch(cfg, n=4))
            del model
            assert ref() is None
        finally:
            gc.enable()
        assert out.fusion.shape == (4, 1, 32, 32)
