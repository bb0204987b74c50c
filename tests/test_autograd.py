"""Backward-pass contracts: tape order, accumulation, finite-difference checks."""

import threading
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from coopseg import gradcheck
from coopseg import tensor as T
from coopseg.config import toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.model import SegmentationModel
from coopseg.tensor import GradientError, Tensor, backward, no_grad
from coopseg.train import view_loss


def log_visits(loss):
    """Wrap the backward rule of every node on ``loss``'s tape so that
    visiting the node appends its op name to the returned list."""
    log = []
    for node in loss.node.tape.nodes:
        def spy(g, op=node.op, inner=node.backward_fn):
            log.append(op)
            return inner(g)

        node.backward_fn = spy
    return log


class TestBackwardBasics:
    def test_sum_grad_all_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        with T.step():
            backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_grad_2x(self):
        data = np.random.default_rng(1).standard_normal(6)
        x = Tensor(data, requires_grad=True)
        with T.step():
            backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 2 * data, atol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError, match="scalar"):
            backward(x * 2.0)

    def test_fanout_accumulates_additively(self):
        x = Tensor([3.0], requires_grad=True)
        with T.step():
            y = x * 2.0 + x * 5.0  # d/dx = 7
            backward(y.sum())
        np.testing.assert_allclose(x.grad, [7.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.step():
            backward(x.sum())
            backward(x.sum())
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 3.0
        assert y.node is None
        assert not y.requires_grad

    def test_constants_get_no_grad(self):
        x = Tensor([2.0], requires_grad=True)
        c = Tensor([5.0])  # requires_grad=False
        with T.step():
            backward((x * c).sum())
        np.testing.assert_array_equal(x.grad, [5.0])
        assert c.grad is None

    def test_graphless_loss_raises_naming_step(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * 3.0).sum()  # outside any step: nothing recorded
        assert loss.node is None
        with pytest.raises(GradientError, match=r"step\(\)"):
            backward(loss)
        with T.step():
            with no_grad():
                loss = (x * 3.0).sum()
            with pytest.raises(GradientError, match=r"step\(\)"):
                backward(loss)
        assert x.grad is None
        leaf, got = Tensor(2.0, requires_grad=True), []
        for step in (T.step, nullcontext):  # a leaf has no graph, in a step or not
            with step(), pytest.raises(GradientError, match=r"step\(\)"):
                backward(leaf, sink=lambda t, g: got.append(t))
        assert leaf.grad is None and got == []


class TestStepScope:
    """Ops record only inside ``T.step()``; each step has a tape of its own,
    released on exit, and the enclosing tape records again afterwards."""

    def test_forwards_outside_a_step_record_nothing(self):
        cfg = toy_config(seed=5)
        model = SegmentationModel(cfg)
        size = cfg.image_size
        x = Tensor(np.random.default_rng(0).standard_normal((1, 3, size, size)).astype(np.float32))
        for _ in range(2):
            outs = model(x)
            assert T._state.tape is None
            assert all(o.node is None and not o.requires_grad for o in outs)

    def test_step_records_on_a_fresh_tape_and_restores_none(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step() as tape:
            assert T._state.tape is tape and len(tape) == 0
            y = x * 2.0
            assert y.node.tape is tape and len(tape) == 1
        assert T._state.tape is None
        assert len(tape) == 0 and y.node.out is None

    def test_no_grad_inside_a_step_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step() as tape:
            with no_grad():
                y = x * 3.0
                assert T._state.tape is None
            assert T._state.tape is tape
            z = x * 4.0
        assert y.node is None and not y.requires_grad
        assert z.node is not None and z.node.op == "mul"
        assert [n.op for n in tape.nodes] == []  # released on exit

    def test_nested_step_restores_the_outer_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.step() as outer:
            a = x * 2.0
            with T.step() as inner:
                assert inner is not outer
                b = (x * 5.0).sum()
                assert b.node.tape is inner and len(outer) == 1
            assert T._state.tape is outer and len(inner) == 0
            loss = (a * 3.0).sum()
            assert [n.op for n in outer.nodes] == ["mul", "mul", "sum"]
            backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])
        with pytest.raises(GradientError, match="already released"):
            backward(b)

    def test_exception_inside_a_step_restores_the_outer_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step() as outer:
            with pytest.raises(RuntimeError, match="boom"):
                with T.step():
                    x * 2.0
                    raise RuntimeError("boom")
            assert T._state.tape is outer
        assert T._state.tape is None


    def test_a_step_records_only_the_ops_of_its_own_thread(self):
        x = Tensor([1.0], requires_grad=True)
        seen = {}

        def run_ops():
            y = x * 2.0
            seen["other"] = (T.recording(), y.node, y.requires_grad)

        with T.step() as tape:
            worker = threading.Thread(target=run_ops)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert T.recording() and len(tape) == 0
        assert seen["other"] == (False, None, False)

        opened, resume = threading.Event(), threading.Event()

        def step_in_other_thread():
            with T.step() as other_tape:
                opened.set()
                resume.wait(timeout=30)
                y = x * 3.0
                seen["step"] = ([n.op for n in other_tape.nodes], y.node.tape is other_tape)

        worker = threading.Thread(target=step_in_other_thread)
        worker.start()
        assert opened.wait(timeout=30)
        z = x * 4.0
        assert not T.recording() and z.node is None and not z.requires_grad
        resume.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen["step"] == (["mul"], True)


class TestTapeSemantics:
    def test_reverse_execution_order(self):
        # record order: mul, add, sum -> backward must visit sum, add, mul
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.step():
            y = x * 2.0
            z = y + 1.0
            loss = z.sum()
            log = log_visits(loss)
            backward(loss)
        assert log == ["sum", "add", "mul"]

    def test_unreachable_ops_skipped(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step():
            _dead_end = x * 10.0  # taped but not feeding the loss
            loss = (x * 2.0).sum()
            log = log_visits(loss)
            backward(loss)
        assert "mul" in log and len(log) == 2  # sum + one mul only
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_diamond_graph_accumulates(self):
        # z = (x*2) + (x*3); dz/dx = 5 reaches x via two tape paths
        x = Tensor([4.0], requires_grad=True)
        with T.step():
            a = x * 2.0
            b = x * 3.0
            backward((a + b).sum())
        np.testing.assert_array_equal(x.grad, [5.0])

    def test_step_tape_empty_after_backward_records_next_op(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step() as tape:
            backward((x * 2.0).sum())
            assert T._state.tape is tape and len(tape) == 0
            y = x * 3.0
            assert [n.op for n in tape.nodes] == ["mul"] and y.node.tape is tape
            backward(y.sum())
        np.testing.assert_array_equal(x.grad, [5.0])


class TestBackwardSink:
    @staticmethod
    def graph(a, b, c, d):
        """loss = sum(v * v) * d with v = a*b + a, plus c * 2, which the loss never reads."""
        u = a * b
        _dead_end = c * 2.0
        v = u + a
        return (v * v).sum() * d

    @staticmethod
    def leaves():
        return [Tensor(v, requires_grad=True) for v in ([1.0, -2.0], [3.0, 0.5], [7.0, 7.0], 1.5)]

    def test_each_reached_leaf_gets_its_summed_gradient_once(self):
        ref = self.leaves()
        with T.step():
            backward(self.graph(*ref))
        leaves = self.leaves()
        got = []
        with T.step():
            backward(self.graph(*leaves), sink=lambda leaf, g: got.append((leaf, g)))
        # c's one consumer passes no gradient, so c never reaches the sink
        assert [leaf for leaf, _ in got] == [leaves[3], leaves[0], leaves[1]]
        for leaf, g in got:
            np.testing.assert_array_equal(g, ref[leaves.index(leaf)].grad)
        assert all(t.grad is None for t in leaves)

    def test_sink_runs_right_after_the_last_consumer_rule(self):
        order = []
        with T.step():
            loss = self.graph(*self.leaves())
            for node in loss.node.tape.nodes:
                def spy(g, op=node.op, inner=node.backward_fn):
                    order.append(op)
                    return inner(g)

                node.backward_fn = spy
            backward(loss, sink=lambda leaf, g: order.append("sink"))
        # d's only consumer is the last node; a and b go once their first consumer, a * b,
        # has run; the dead-end mul is skipped
        assert order == ["mul", "sink", "sum", "mul", "add", "mul", "sink", "sink"]


class TestTapeLifetime:
    """A spent graph frees itself by reference counting (the cyclic GC stays
    off in these tests) and cannot be replayed."""

    def test_intermediate_freed_when_backward_returns(self):
        rng = np.random.default_rng(0)
        with helpers.cyclic_gc_disabled(), T.step():
            x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            h = T.gelu(x @ w)
            ref = weakref.ref(h.data)
            loss = (h * h).sum()
            del h
            assert ref() is not None  # the live graph holds it
            backward(loss)
            assert ref() is None

    def test_visited_node_freed_before_its_inputs_are_visited(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with helpers.cyclic_gc_disabled(), T.step():
            a = x * 2.0
            b = T.gelu(a)
            ref = weakref.ref(b.data)
            loss = (b * b).sum()  # the mul rule keeps b's array until it is visited
            del b
            assert ref() is not None
            seen = []
            inner = a.node.backward_fn

            def probe(g):
                seen.append(ref())  # gelu and sum were visited before mul
                return inner(g)

            a.node.backward_fn = probe
            backward(loss)
        assert seen == [None]

    @pytest.mark.parametrize("exit_by", ["backward", "no_backward", "exception"])
    def test_no_recorded_array_survives_its_step(self, exit_by):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        with helpers.cyclic_gc_disabled():
            with pytest.raises(RuntimeError) if exit_by == "exception" else nullcontext():
                with T.step():
                    xw = x @ w
                    h = T.gelu(xw)
                    refs = [weakref.ref(h.data), weakref.ref(xw.data)]
                    loss = (h * h).sum()
                    del h, xw
                    assert all(r() is not None for r in refs)  # the live graph holds them
                    if exit_by == "backward":
                        backward(loss)
                    elif exit_by == "exception":
                        raise RuntimeError("aborted step")
            assert [r() for r in refs] == [None, None]
            assert loss.node.out is None

    def test_unreached_nodes_released(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step() as tape:
            dead_end = x * 10.0
            loss = (x * 2.0).sum()
            backward(loss)
            assert len(tape) == 0
        assert dead_end.node.out is None and dead_end.node.backward_fn is None

    def test_replay_raises_and_keeps_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.step():
            loss = (x * 3.0).sum()
            backward(loss)
            with pytest.raises(GradientError, match="already released"):
                backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_second_loss_on_spent_tape_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.step():
            a = x * 2.0
            first, second = a.sum(), (a * a).sum()
            backward(first)
            with pytest.raises(GradientError, match="already released"):
                backward(second)

    def test_backward_after_step_exit_raises(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step():
            loss = (x * 2.0).sum()
        assert T._state.tape is None
        with pytest.raises(GradientError, match="already released"):
            backward(loss)
        assert x.grad is None

    def test_tensor_from_an_earlier_step_raises(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step():
            a = x * 2.0
        with T.step(), pytest.raises(GradientError, match="another step"):
            backward((a * 3.0).sum())
        assert x.grad is None and a.grad is None

    def test_tensor_spent_by_backward_raises_in_the_same_step(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step():
            a = x * 2.0
            backward(a.sum())
            with pytest.raises(GradientError, match="spent by backward"):
                a * 3.0
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_tensor_from_an_outer_step_raises_in_a_nested_step(self):
        x = Tensor([1.0], requires_grad=True)
        with T.step():
            a = x * 2.0
            with T.step(), pytest.raises(GradientError, match="another step"):
                a * 3.0
            backward((a * 3.0).sum())
        np.testing.assert_array_equal(x.grad, [6.0])
        assert a.grad is None


class TestFiniteDifferenceComposites:
    """Composite toy graphs vs central differences (h=1e-5, 64-bit)."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mlp_like_graph(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((6, 8)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((8, 3)) * 0.5, requires_grad=True)

        def loss():
            h = T.gelu(x @ w1)
            return T.sigmoid(h @ w2).sum()

        err = gradcheck.check_function(loss, [x, w1, w2], rng)
        assert err < 1e-4

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_conv_norm_graph(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
        g = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)

        def loss():
            y = T.conv2d(x, k)
            y = T.batchnorm_channel(y, g, b, rm, rv, training=True)
            return T.gelu(y).mean()

        err = gradcheck.check_function(loss, [x, k, g, b], rng)
        assert err < 1e-4

    def test_attention_like_graph(self):
        rng = np.random.default_rng(42)
        q = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def loss():
            att = T.softmax_lastdim((q @ T.transpose(k, (1, 0))) * 0.5)
            return ((att @ v) * 0.3).sum()

        err = gradcheck.check_function(loss, [q, k, v], rng)
        assert err < 1e-4

    def test_softmax_log_pipeline(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)

        def loss():
            p = T.clip(T.softmax_lastdim(x), 1e-7, 1 - 1e-7)
            return -(T.log(p)).mean()

        err = gradcheck.check_function(loss, [x], rng)
        assert err < 1e-4


class TestOpSuite:
    """Every differentiable op against the finite-difference oracle."""

    def test_all_ops_pass(self):
        results = gradcheck.run_op_suite(seed=0, inputs_per_op=5)
        failures = [f"{r.name}: {r.max_rel_err:.2e}" for r in results if not r.ok]
        assert not failures, "gradient mismatches: " + "; ".join(failures)

    def test_suite_covers_expected_ops(self):
        """Every op a toy training step records, under each GLFF/DFM setting, is
        recorded by some C1 case, so a new op in the model needs a case."""
        checked = set()
        for ci, (_, build) in enumerate(gradcheck._op_cases()):
            _, op = build(np.random.default_rng([0, ci, 0]))
            with T.step() as tape:
                op()
                checked.update(node.op for node in tape.nodes)
        samples = synth_dataset(2, 32, seed=0)
        [(_, images, masks)] = make_batches(samples, 2, np.float32)
        for glff_on in (True, False):
            for dfm_on in (True, False):
                cfg = toy_config(image_size=32, d_model=48, stem_channels=4, stage_units=1,
                                 c4=8, c8=12, c16=16, glff_on=glff_on, dfm_on=dfm_on)
                model = SegmentationModel(cfg)
                with T.step() as tape:
                    losses = [view_loss(pre, masks) for pre in model(images)]
                    sum(lk * (1.0 / 3.0) for lk in losses)
                    recorded = {node.op for node in tape.nodes}
                assert recorded <= checked, (glff_on, dfm_on, sorted(recorded - checked))


class TestKinkDetection:
    """Finite differences across a relu/amax/clip kink measure no derivative;
    such probes must be recognized and redrawn, not compared."""

    @staticmethod
    def pattern(fn, *values):
        """Run ``fn`` on fresh requires_grad tensors inside a step and
        return the branch pattern read off its tape."""
        with T.step() as tape:
            fn(*(Tensor(v, requires_grad=True) for v in values))
            return gradcheck._branch_pattern(tape)

    def test_branch_pattern_stable_for_same_input(self):
        x = np.array([1.0, -2.0, 0.5])

        def fn(a, b, c):
            T.relu(a)
            T.amax(b, axis=1)
            T.clip(c, -1.0, 1.0)

        pats = [self.pattern(fn, x, [[1.0, 3.0]], x) for _ in range(2)]
        assert pats[0] == pats[1]
        assert len(pats[0]) == 3

    def test_branch_pattern_flips_with_the_branch(self):
        for fn, a, b in [
            (T.relu, [1.0, -1.0], [1.0, 1.0]),
            (lambda t: T.amax(t, axis=1), [[1.0, 2.0]], [[2.0, 1.0]]),
            (lambda t: T.clip(t, -1.0, 1.0), [0.5], [1.5]),
            (lambda t: T.clip(t, -1.0, 1.0), [0.5], [np.nan]),
        ]:
            assert self.pattern(fn, a) != self.pattern(fn, b)

    def test_amax_pattern_reads_the_reduced_axes(self):
        # both reductions give [3, 3] from the same three winners; only the
        # tie shares, which follow the reduced axes, tell them apart
        x = [[3.0, 3.0], [3.0, 0.0]]
        assert self.pattern(lambda t: T.amax(t, axis=0), x) != self.pattern(lambda t: T.amax(t, axis=1), x)

    def test_recording_is_off_outside_context(self):
        p = Tensor([1.0], requires_grad=True)
        T.relu(p)  # outside any step
        with T.step() as tape:
            T.relu(Tensor([-1.0]))  # no requires_grad input
            with no_grad():
                T.clip(p, 0.0, 0.5)
            T.relu(p)
            assert len(gradcheck._branch_pattern(tape)) == 1

    def test_no_piecewise_op_of_the_model_escapes_the_tape(self, monkeypatch):
        captured = {}

        def fake_check(f, params, rng, n_samples=None):
            captured.update(f=f)
            return 0.0

        monkeypatch.setattr(gradcheck, "check_function", fake_check)
        gradcheck.check_model_end_to_end(seed=0, n_samples=1)
        calls = []
        for name in ("relu", "amax", "clip"):
            def spy(*args, inner=getattr(T, name), **kwargs):
                calls.append(inner)
                return inner(*args, **kwargs)

            monkeypatch.setattr(T, name, spy)
        with T.step() as tape:
            captured["f"]()
            assert len(calls) == len(gradcheck._branch_pattern(tape)) > 0

    def test_kinked_probe_is_redrawn(self):
        vals = np.array([0.3, -0.4, 1e-6, 0.7, -0.2, 0.9, -0.8, 0.6])
        p = Tensor(vals.copy(), requires_grad=True)
        rng = np.random.default_rng(0)
        err = gradcheck.check_function(lambda: T.relu(p).sum(), [p], rng)
        assert err < 1e-9
        assert np.array_equal(p.data, vals)

    def test_all_probes_kinked_raises(self):
        p = Tensor(np.array([1e-6]), requires_grad=True)
        rng = np.random.default_rng(0)
        with pytest.raises(T.GradientError, match="kink"):
            gradcheck.check_function(lambda: T.relu(p).sum(), [p], rng)

    @pytest.mark.slow
    def test_model_end_to_end_under_tolerance(self):
        err = gradcheck.check_model_end_to_end(seed=0, n_samples=50)
        assert err < gradcheck.TOL_DEFAULT
