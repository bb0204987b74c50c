"""Dense convolutional branch: tap geometry, growth bookkeeping, and a
small fit-capacity check on synthetic shapes."""

import numpy as np
import pytest

from coopseg import gradcheck
from coopseg import tensor as T
from coopseg.cnn import CnnBranch, CnnViewHead, DenseStage
from coopseg.config import RunConfig, toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.metrics import dice
from coopseg.tensor import ShapeError, Tensor
from coopseg.train import Adam, view_loss


def rng_of(seed):
    return np.random.default_rng(seed)


def cnn_cfg(units=1, stem=4, chans=(8, 12, 16)):
    return RunConfig(stem_channels=stem, c4=chans[0], c8=chans[1], c16=chans[2], stage_units=units)


def small_branch(units=1, stem=4, chans=(8, 12, 16)):
    return CnnBranch(cnn_cfg(units, stem, chans), rng_of(0))


class TestTapGeometry:
    def test_full_resolution_default_channels(self):
        branch = CnnBranch(cnn_cfg(units=1, stem=32, chans=(64, 128, 256)), rng_of(1))
        feats = branch(Tensor(np.zeros((1, 3, 352, 352), dtype=np.float32)))
        assert feats.s4.shape == (1, 64, 88, 88)
        assert feats.s8.shape == (1, 128, 44, 44)
        assert feats.s16.shape == (1, 256, 22, 22)

    def test_toy_resolution(self):
        feats = small_branch()(Tensor(np.zeros((2, 3, 64, 64))))
        assert feats.s4.shape == (2, 8, 16, 16)
        assert feats.s8.shape == (2, 12, 8, 8)
        assert feats.s16.shape == (2, 16, 4, 4)

    def test_doubling_input_doubles_taps(self):
        branch = small_branch()
        a = branch(Tensor(np.zeros((1, 3, 32, 32))))
        b = branch(Tensor(np.zeros((1, 3, 64, 64))))
        for fa, fb in zip(a, b):
            assert fb.shape[2] == 2 * fa.shape[2]
            assert fb.shape[3] == 2 * fa.shape[3]

    def test_indivisible_input_rejected(self):
        branch = small_branch()
        with pytest.raises(ShapeError):
            branch(Tensor(np.zeros((1, 3, 40, 40))))
        with pytest.raises(ShapeError):
            branch(Tensor(np.zeros((1, 3, 64, 40))))


class TestDenseGrowth:
    def test_unit_inputs_grow_by_stage_width(self):
        stage = DenseStage(10, 6, 3, rng_of(2))
        widths = [u.conv.weight.shape[1] for u in stage.units]
        assert widths == [10, 16, 22]

    def test_every_unit_output_reaches_the_last_unit(self):
        # zeroing unit 1's output must change unit 3's input, hence the tap
        stage = DenseStage(4, 3, 3, rng_of(3))
        x = Tensor(rng_of(4).standard_normal((1, 4, 8, 8)))
        stage.train()
        base = stage(x).data.copy()
        first = stage.units[0]
        first.conv.weight.data[...] = 0.0
        first.bn.gamma.data[...] = 0.0
        changed = stage(x).data
        assert np.abs(base - changed).max() > 1e-6


class TestViewHead:
    def test_shapes_and_range(self):
        branch = small_branch()
        head = CnnViewHead(cnn_cfg(), rng_of(5))
        img = Tensor(rng_of(6).standard_normal((2, 3, 64, 64)) * 0.2)
        out = head(branch(img))
        assert out.shape == (2, 1, 64, 64)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_zeroed_head_gives_half(self):
        branch = small_branch()
        head = CnnViewHead(cnn_cfg(), rng_of(7))
        head.out.weight.data[...] = 0.0
        head.out.bias.data[...] = 0.0
        out = head(branch(Tensor(rng_of(8).standard_normal((1, 3, 64, 64)))))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 64, 64), 0.5))

    def test_gradient_vs_finite_differences(self):
        branch = small_branch(units=1, stem=3, chans=(4, 5, 6))
        head = CnnViewHead(cnn_cfg(stem=3, chans=(4, 5, 6)), rng_of(9))
        branch.train()
        img = Tensor(rng_of(10).standard_normal((2, 3, 32, 32)) * 0.3)

        def loss():
            return head(branch(img)).mean()

        params = branch.parameters() + head.parameters()
        err = gradcheck.check_function(loss, params, rng_of(11), n_samples=60)
        assert err < 1e-4


@pytest.mark.slow
class TestFitCapacity:
    def test_branch_alone_overfits_toy_set(self):
        cfg = toy_config(stage_units=2, c4=32, c8=64, c16=128, stem_channels=16)
        samples = synth_dataset(cfg.synth_samples, cfg.image_size, seed=32)
        [(_, images, masks)] = make_batches(samples, len(samples), np.float32)

        branch = CnnBranch(cfg, rng_of(12)).cast(np.float32)
        head = CnnViewHead(cfg, rng_of(13)).cast(np.float32)
        branch.train()
        params = branch.parameters() + head.parameters()
        opt = Adam(params, lr=2e-3)
        for _ in range(300):
            opt.zero_grad()
            with T.step():
                view_loss(head(branch(images)), masks).backward()
            opt.step()

        branch.eval()
        pred = head(branch(images)).data
        scores = [dice(pred[i, 0], masks.data[i, 0]) for i in range(len(samples))]
        assert float(np.mean(scores)) >= 0.90
