import itertools
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import tensor_nn as tn
from fedtune.adapter import TuningScheme
from fedtune.errors import (
    ConfigurationError,
    DataError,
    ShapeError,
    TrainingError,
)
from fedtune.model import ModelSpec, build_model, forward
from fedtune.tensor_nn import (
    AttentionParams,
    SeededRng,
    Tensor,
    cross_entropy_loss,
    grad_check,
    layer_norm,
    linear_forward,
    make_parameter,
    multi_head_attention,
    sgd_step,
)

from conftest import assert_equal_on_skylakex


def rand_param(rng, shape, name, trainable=True):
    return make_parameter(rng.normal(0.0, 1.0, shape), trainable, name)


def make_attention(rng, n, trainable=True):
    fields = {}
    for key in ("wq", "wk", "wv", "wo"):
        fields[key] = rand_param(rng, (n, n), key, trainable)
        fields["b" + key[1]] = rand_param(rng, (n,), "b" + key[1], trainable)
    return AttentionParams(**fields)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(42).normal(0, 1, (4, 4))
        b = SeededRng(42).normal(0, 1, (4, 4))
        assert np.array_equal(a, b)

    def test_spawn_is_stable_and_independent(self):
        root = SeededRng(7)
        child1 = root.spawn("task")
        child2 = SeededRng(7).spawn("task")
        other = SeededRng(7).spawn("model")
        assert np.array_equal(child1.normal(0, 1, 8), child2.normal(0, 1, 8))
        assert not np.array_equal(SeededRng(7).spawn("task").normal(0, 1, 8),
                                  other.normal(0, 1, 8))

    def test_algorithm_is_pinned(self):
        assert SeededRng.ALGORITHM == "pcg64"


class TestLinear:
    def test_identity(self):
        x = Tensor([[1.0, 0.0], [0.0, 1.0]])
        w = make_parameter(np.eye(2), True, "w")
        b = make_parameter(np.zeros(2), True, "b")
        out = linear_forward(x, w, b)
        assert np.array_equal(out.data, np.eye(2))

    def test_hand_arithmetic(self):
        x = Tensor([[1.0, 2.0]])
        w = make_parameter([[1.0], [1.0]], True, "w")
        b = make_parameter([3.0], True, "b")
        assert linear_forward(x, w, b).data.tolist() == [[6.0]]

    def test_gradcheck_seed7(self):
        rng = SeededRng(7)
        x = Tensor(rng.normal(0, 1, (3, 4)))
        w = rand_param(rng, (4, 5), "w")
        b = rand_param(rng, (5,), "b")

        def loss():
            out = linear_forward(x, w, b)
            flat = tn.reshape(out, (15,))
            sq = tn.bmm(tn.reshape(flat, (1, 1, 15)), tn.reshape(flat, (1, 15, 1)))
            return tn.reshape(sq, ())

        err = grad_check(loss, [w, b], step=1e-5)
        assert err < 1e-6

    def test_shape_error_names_both_shapes(self):
        x = Tensor(np.zeros((2, 3)))
        w = make_parameter(np.zeros((4, 5)), True, "w")
        b = make_parameter(np.zeros(5), True, "b")
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            linear_forward(x, w, b)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor([[5.0, 5.0, 5.0]])
        g = make_parameter(np.ones(3), False, "g")
        s = make_parameter(np.zeros(3), False, "s")
        out = layer_norm(x, g, s)
        assert np.allclose(out.data, 0.0)

    def test_two_point_row(self):
        x = Tensor([[1.0, -1.0]])
        g = make_parameter(np.ones(2), False, "g")
        s = make_parameter(np.zeros(2), False, "s")
        out = layer_norm(x, g, s).data
        # population variance 1, eps slightly shrinks the output
        assert out.flatten() == pytest.approx([1.0, -1.0], abs=1e-4)

    def test_row_statistics(self):
        rng = SeededRng(3)
        x = Tensor(rng.normal(2.0, 3.0, (6, 32)))
        g = make_parameter(np.ones(32), False, "g")
        s = make_parameter(np.zeros(32), False, "s")
        out = layer_norm(x, g, s).data
        assert np.abs(out.mean(axis=1)).max() < 1e-12
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4

    def test_gradcheck(self):
        rng = SeededRng(5)
        x = Tensor(rng.normal(0, 1, (3, 6)), requires_grad=False)
        g = rand_param(rng, (6,), "g")
        s = rand_param(rng, (6,), "s")
        labels = np.array([0, 1, 2])

        def loss():
            return cross_entropy_loss(
                linear_forward(layer_norm(x, g, s), w, b), labels)

        w = rand_param(rng, (6, 3), "w")
        b = rand_param(rng, (3,), "b")
        err = grad_check(loss, [g, s, w, b])
        assert err < 1e-6

    def test_gradcheck_through_input(self):
        rng = SeededRng(9)
        base = rand_param(rng, (2, 6), "base")
        g = rand_param(rng, (6,), "g")
        s = rand_param(rng, (6,), "s")
        labels = np.array([1, 0])
        w = rand_param(rng, (6, 2), "w")
        b = rand_param(rng, (2,), "b")

        def loss():
            return cross_entropy_loss(
                linear_forward(layer_norm(base, g, s), w, b), labels)

        assert grad_check(loss, [base, g, s, w, b]) < 1e-6


class TestAttention:
    def test_single_position_is_value_projection(self):
        rng = SeededRng(1)
        n = 6
        params = make_attention(rng, n)
        x = Tensor(rng.normal(0, 1, (2, 1, n)))
        out = multi_head_attention(x, params, heads=2).data
        v = x.data.reshape(-1, n) @ params.wv.data + params.bv.data
        expected = (v @ params.wo.data + params.bo.data).reshape(2, 1, n)
        assert np.allclose(out, expected, atol=1e-12)

    def test_heads_must_divide(self):
        rng = SeededRng(2)
        params = make_attention(rng, 6)
        x = Tensor(rng.normal(0, 1, (1, 3, 6)))
        with pytest.raises(ConfigurationError):
            multi_head_attention(x, params, heads=4)

    def test_batch_permutation_equivariance(self):
        rng = SeededRng(4)
        n = 8
        params = make_attention(rng, n, trainable=False)
        x = rng.normal(0, 1, (5, 3, n))
        perm = np.array([3, 0, 4, 1, 2])
        out = multi_head_attention(Tensor(x), params, heads=2).data
        out_perm = multi_head_attention(Tensor(x[perm]), params, heads=2).data
        # float64, so within 4 eps of the largest output
        assert_equal_on_skylakex(out[perm], out_perm,
                                 atol=4 * np.finfo(np.float64).eps * np.abs(out).max())

    def test_gradcheck_two_heads(self):
        rng = SeededRng(6)
        n = 4
        params = make_attention(rng, n)
        x = Tensor(rng.normal(0, 1, (2, 3, n)))
        labels = np.array([0, 1])
        w = rand_param(rng, (n, 2), "w")
        b = rand_param(rng, (2,), "b")

        def loss():
            att = multi_head_attention(x, params, heads=2)
            return cross_entropy_loss(linear_forward(tn.first_token(att), w, b), labels)

        err = grad_check(loss, params.all() + [w, b])
        assert err < 1e-4


class TestCrossEntropy:
    def test_extreme_logits_are_stable(self):
        loss = cross_entropy_loss(Tensor([[1000.0, -1000.0]]), np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits(self):
        loss = cross_entropy_loss(Tensor([[0.0, 0.0, 0.0, 0.0]]), np.array([2]))
        assert loss.item() == pytest.approx(math.log(4.0), rel=1e-12)

    def test_out_of_range_label_identifies_sample(self):
        with pytest.raises(DataError, match="sample 1"):
            cross_entropy_loss(Tensor(np.zeros((3, 2))), np.array([0, 5, 1]))

    def test_gradcheck(self):
        rng = SeededRng(8)
        x = Tensor(rng.normal(0, 1, (4, 3)))
        w = rand_param(rng, (3, 5), "w")
        b = rand_param(rng, (5,), "b")
        labels = np.array([0, 4, 2, 1])

        def loss():
            return cross_entropy_loss(linear_forward(x, w, b), labels)

        assert grad_check(loss, [w, b]) < 1e-6


class TestSgd:
    def test_frozen_param_bytes_unchanged(self):
        rng = SeededRng(1)
        frozen = rand_param(rng, (3, 3), "frozen", trainable=False)
        live = rand_param(rng, (3, 3), "live", trainable=True)
        before = frozen.data.tobytes()
        x = Tensor(rng.normal(0, 1, (2, 3)))
        loss = cross_entropy_loss(
            linear_forward(x, live, make_parameter(np.zeros(3), True, "b")),
            np.array([0, 1]))
        loss.backward()
        live.grad = np.ones((3, 3))
        sgd_step([frozen, live], lr=0.5)
        assert frozen.data.tobytes() == before

    def test_hand_arithmetic(self):
        p = make_parameter([1.0], True, "p")
        p.grad = np.array([2.0])
        sgd_step([p], lr=0.1)
        assert p.data.tolist() == [0.8]
        assert p.grad is None

    def test_two_steps_match_summed_gradient(self):
        rng = SeededRng(2)
        g1, g2 = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
        start = rng.normal(0, 1, 4)
        p = make_parameter(start.copy(), True, "p")
        p.grad = g1.copy()
        sgd_step([p], lr=0.05)
        p.grad = g2.copy()
        sgd_step([p], lr=0.05)
        q = make_parameter(start.copy(), True, "q")
        q.grad = g1 + g2
        sgd_step([q], lr=0.05)
        assert np.allclose(p.data, q.data, atol=1e-12)

    def test_missing_gradient_raises(self):
        p = make_parameter([1.0], True, "p")
        with pytest.raises(TrainingError, match="'p'"):
            sgd_step([p], lr=0.1)

    def test_lr_zero_is_bitwise_noop(self):
        p = make_parameter([0.1, -2.5, 3e-7], True, "p")
        before = p.data.tobytes()
        p.grad = np.array([5.0, -1.0, 2.0])
        sgd_step([p], lr=0.0)
        assert p.data.tobytes() == before


class TestGradCheck:
    def test_zero_parameter_model_returns_zero(self):
        assert grad_check(lambda: Tensor(np.array(1.0)), []) == 0.0

    def test_linear_model_is_nearly_exact(self):
        rng = SeededRng(3)
        w = rand_param(rng, (4,), "w")
        x = rng.normal(0, 1, 4)

        def loss():
            # loss linear in w, so central differences are exact to rounding
            prod = tn.bmm(tn.reshape(Tensor(x), (1, 1, 4)),
                          tn.reshape(w, (1, 4, 1)))
            return tn.reshape(prod, ())

        assert grad_check(loss, [w]) < 1e-8


class TestDeterminism:
    def test_forward_backward_bit_identical(self):
        def run():
            rng = SeededRng(12)
            x = Tensor(rng.normal(0, 1, (3, 2, 8)))
            params = make_attention(rng, 8)
            w = rand_param(rng, (8, 3), "w")
            b = rand_param(rng, (3,), "b")
            att = multi_head_attention(x, params, heads=2)
            loss = cross_entropy_loss(
                linear_forward(tn.first_token(att), w, b), np.array([0, 1, 2]))
            loss.backward()
            return loss.item(), w.grad.tobytes(), params.wq.grad.tobytes()

        assert run() == run()


class TestGraphRelease:
    """A graph is consumed by one backward(); only leaves keep gradients."""

    def build(self, rng):
        x = Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
        w = rand_param(rng, (5, 3), "w")
        b = rand_param(rng, (3,), "b")
        hidden = linear_forward(x, w, b)
        act = tn.relu(hidden)
        loss = cross_entropy_loss(act, np.array([0, 1, 2, 0]))
        return x, w, b, hidden, act, loss

    def test_intermediates_released_leaves_keep_grads(self):
        x, w, b, hidden, act, loss = self.build(SeededRng(21))
        loss.backward()
        assert hidden.grad is None and act.grad is None and loss.grad is None
        assert all(t.grad is not None for t in (x, w, b))
        assert loss.item() > 0.0 and act.data.shape == (4, 3)

    def test_second_backward_raises_and_keeps_first_grads(self):
        x, w, b, _, act, loss = self.build(SeededRng(21))
        loss.backward()
        grads = [t.grad.copy() for t in (x, w, b)]
        with pytest.raises(TrainingError, match="consumed"):
            loss.backward()
        # a new graph on top of a consumed intermediate is refused too
        with pytest.raises(TrainingError, match="consumed"):
            cross_entropy_loss(tn.relu(act), np.array([0, 1, 2, 0])).backward()
        for t, g in zip((x, w, b), grads):
            assert np.array_equal(t.grad, g)

    def test_backward_peak_is_one_working_set(self):
        # full fine-tuning of a small encoder: every layer keeps a graph
        spec = ModelSpec(num_layers=3, hidden=16, heads=2, ffn_dim=32,
                         vocab=24, seqlen=8, num_labels=3)
        model = adapter_mod.materialize(build_model(spec, 2), TuningScheme("full"))
        tokens = SeededRng(5).integers(0, 24, size=(8, 8))
        grad_bytes = sum(p.data.nbytes for p in model.trainable_parameters())
        tracemalloc.start()
        try:
            loss = cross_entropy_loss(forward(model, tokens), np.arange(8) % 3)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # without the release: peak 1.9x and 1.25 MB held after, 22x the gradients
        assert peak <= 1.25 * before
        assert after <= 2 * grad_bytes
        assert all(p.grad is not None for p in model.trainable_parameters())


MID_SPEC = ModelSpec(num_layers=6, hidden=64, heads=4, ffn_dim=128, vocab=200, seqlen=32,
                     num_labels=4)


def _mid_full_ft_step():
    """A full fine-tuning model at the mid shape, the benchmark's, and one B = 8 batch."""
    model = adapter_mod.materialize(build_model(MID_SPEC, 2), TuningScheme("full"))
    tokens = SeededRng(5).integers(0, MID_SPEC.vocab, size=(8, MID_SPEC.seqlen))
    return model, tokens, np.arange(8) % MID_SPEC.num_labels


def _graph_nodes(root: tn.Node) -> list[tn.Node]:
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def _captured(value):
    """What ``value`` holds: itself, or the items of a sequence or a function's cells, in depth."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _captured(item)
    elif isinstance(value, types.FunctionType):
        for cell in value.__closure__ or ():
            yield from _captured(cell.cell_contents)
    else:
        yield value


class TestGraphKeepsOnlyWhatBackwardReads:
    """Closures hold parent nodes, arrays and shapes, never a parent ``Tensor``."""

    def test_mid_shape_step_peak(self):
        model, tokens, labels = _mid_full_ft_step()
        trainable = model.trainable_parameters()
        cross_entropy_loss(forward(model, tokens), labels).backward()  # warm-up
        tn.clear_grads(trainable)
        tracemalloc.start()
        try:
            cross_entropy_loss(forward(model, tokens), labels).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8.30 MB when every node kept its parent Tensor, 4.77 MB without;
        # 4.01 MB once no closure keeps a layer norm's output or a ReLU mask
        assert peak <= 4.4e6, peak
        assert all(p.grad is not None for p in trainable)

    def test_scores_and_residual_sum_freed_before_backward(self, monkeypatch):
        spec = ModelSpec(num_layers=2, hidden=16, heads=2, ffn_dim=32,
                         vocab=24, seqlen=8, num_labels=3)
        model = adapter_mod.materialize(build_model(spec, 2), TuningScheme("full"))
        tokens = SeededRng(5).integers(0, spec.vocab, size=(4, spec.seqlen))
        inputs = {"softmax_lastdim": [], "layer_norm": []}
        for name, kept in inputs.items():
            def spy(x, *args, _op=getattr(tn, name), _kept=kept):
                _kept.append(weakref.ref(x.data))
                return _op(x, *args)
            monkeypatch.setattr(tn, name, spy)
        logits = forward(model, tokens)
        assert len(inputs["softmax_lastdim"]) == 2 and len(inputs["layer_norm"]) == 4
        # the attention scores and the residual sums before each layer norm
        assert all(ref() is None for refs in inputs.values() for ref in refs)
        loss = cross_entropy_loss(logits, np.arange(4) % 3)
        assert loss.node.parents is not None  # the graph is still unconsumed
        loss.backward()
        assert all(p.grad is not None for p in model.trainable_parameters())

    def test_layer_norm_outputs_and_relu_masks_freed_before_backward(self, monkeypatch):
        model, tokens, labels = _mid_full_ft_step()
        outputs = []

        def spy(*args, _op=tn.layer_norm):
            out = _op(*args)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(tn, "layer_norm", spy)
        loss = cross_entropy_loss(forward(model, tokens), labels)
        assert len(outputs) == 2 * MID_SPEC.num_layers
        # the linear maps that read an output keep its node's recompute instead
        assert all(ref() is None for ref in outputs)
        nodes = _graph_nodes(loss.node)
        held = [v for node in nodes for v in _captured([node.bwd, node.recompute])
                if isinstance(v, np.ndarray)]
        assert len(held) > 100
        assert not any(a.dtype == np.bool_ for a in held)  # a ReLU reads its output
        assert sum(node.recompute is not None for node in nodes) == len(outputs)
        loss.backward()
        # consuming a node releases its recompute, and with it the normalised rows
        assert all(node.recompute is None for node in nodes)
        assert all(p.grad is not None for p in model.trainable_parameters())

    def test_no_closure_holds_a_tensor(self):
        model, tokens, labels = _mid_full_ft_step()
        loss = cross_entropy_loss(forward(model, tokens), labels)
        plain = (tn.Node, np.ndarray, np.dtype, int, float, type(None))

        nodes = _graph_nodes(loss.node)
        closures = [fn for node in nodes if node.parents
                    for fn in (node.bwd, node.recompute) if fn is not None]
        assert len(closures) > 100
        held_functions = 0
        for fn in closures:
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
                held_functions += isinstance(cell.cell_contents, types.FunctionType)
                assert all(isinstance(v, plain) for v in _captured(cell.cell_contents)), \
                    (fn.__qualname__, name)
        assert held_functions > 0  # a linear map's closure holding a recompute
        loss.backward()

    def test_ops_without_a_graph_make_no_node(self):
        x = Tensor(np.ones((2, 3)))
        w = make_parameter(np.ones((3, 2)), False, "w")
        b = make_parameter(np.zeros(2), False, "b")
        assert x.node is None and w.node is None
        out = tn.relu(linear_forward(x, w, b))
        assert out.node is None and not out.requires_grad and out.grad is None

def _old_layer_norm(x, g, b, dout, eps=1e-5):
    """The layer norm's forward and input gradient as written with ``.mean``."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    dxhat = dout * g
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return xhat * g + b, inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)


def _old_softmax(x, dout):
    """The softmax's forward and input gradient as written with ``.max`` and fresh arrays."""
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    y = exp / exp.sum(axis=-1, keepdims=True)
    inner = (dout * y).sum(axis=-1, keepdims=True)
    return y, (dout - inner) * y


def _old_scaled_softmax(x, factor, dout):
    """Attention's scores as a separate scaling op followed by the softmax, as first written."""
    y, dscaled = _old_softmax(x * factor, dout)
    return y, dscaled * factor


class TestKernelsMatchTheirOldFormulas:
    """Bit for bit on float32 rows: the rewritten kernels allocate less, not compute otherwise."""

    @pytest.mark.parametrize("n", [1, 5, 32, 64])
    def test_layer_norm(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0.3, 2.0, (4, 3, n)).astype(np.float32)
        g = rng.normal(1.0, 0.5, n).astype(np.float32)
        b = rng.normal(0.0, 0.5, n).astype(np.float32)
        dout = rng.normal(0.0, 1.0, x.shape).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = layer_norm(xt, make_parameter(g, False, "g"), make_parameter(b, False, "b"))
        out.node.bwd(dout)
        old_out, old_dx = _old_layer_norm(x, g, b, dout)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == old_out.tobytes()
        assert xt.grad.tobytes() == old_dx.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 32, 64])
    def test_softmax(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.normal(0.0, 3.0, (2, 4, 3, n)).astype(np.float32)
        dout = rng.normal(0.0, 1.0, x.shape).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = tn.softmax_lastdim(xt)
        out.node.bwd(dout)
        old_y, old_dx = _old_softmax(x, dout)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == old_y.tobytes()
        assert xt.grad.tobytes() == old_dx.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 32, 64])
    def test_softmax_with_factor(self, n):
        rng = np.random.default_rng(200 + n)
        x = rng.normal(0.0, 3.0, (2, 4, 3, n)).astype(np.float32)
        dout = rng.normal(0.0, 1.0, x.shape).astype(np.float32)
        factor = 1.0 / math.sqrt(16)
        for f in (factor, 1.0 / math.sqrt(12)):
            xt = Tensor(x, requires_grad=True)
            out = tn.softmax_lastdim(xt, f)
            out.node.bwd(dout)
            old_y, old_dx = _old_scaled_softmax(x, f, dout)
            assert out.data.tobytes() == old_y.tobytes()
            assert xt.grad.tobytes() == old_dx.tobytes()

    def test_layer_norm_without_a_graph(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.3, 2.0, (4, 3, 64)).astype(np.float32)
        g = rng.normal(1.0, 0.5, 64).astype(np.float32)
        b = rng.normal(0.0, 0.5, 64).astype(np.float32)
        before = x.copy()
        out = layer_norm(Tensor(x), make_parameter(g, False, "g"), make_parameter(b, False, "b"))
        assert out.node is None and out.data.base is None
        assert out.data.tobytes() == _old_layer_norm(x, g, b, x)[0].tobytes()
        assert x.tobytes() == before.tobytes()


class TestViewsAndContiguity:
    """``reshape`` and ``transpose`` return views; ``bmm`` copies only a strided last axis."""

    @pytest.mark.parametrize("op", [lambda t: tn.reshape(t, (2, 5, 3, 2)),
                                    lambda t: tn.transpose(t, (0, 2, 1))],
                             ids=["reshape", "transpose"])
    def test_output_and_input_gradient_share_memory(self, op):
        rng = np.random.default_rng(3)

        def every_other(*shape):  # not contiguous, so a copy to contiguous memory would show
            return rng.normal(0.0, 1.0, (2 * shape[0], *shape[1:])).astype(np.float32)[::2]

        x = Tensor(every_other(2, 5, 6), requires_grad=True)
        out = op(x)
        assert np.shares_memory(out.data, x.data)
        dout = every_other(*out.shape)
        out.node.bwd(dout)
        assert np.shares_memory(x.grad, dout)

    @pytest.mark.parametrize("axes", [*itertools.permutations(range(3)),
                                      *itertools.permutations(range(4))])
    def test_transpose_gradient_is_the_inverse_permutation(self, axes):
        x = Tensor(np.zeros((2, 3, 4, 5)[:len(axes)], np.float32), requires_grad=True)
        out = tn.transpose(x, axes)
        dout = np.arange(out.data.size, dtype=np.float32).reshape(out.shape)
        out.node.bwd(dout)
        assert np.shares_memory(x.grad, dout)
        assert np.array_equal(x.grad, dout.transpose(np.argsort(axes)))

    def test_one_row_query_against_transposed_keys_matches_contiguous(self):
        # the pooled top layer at the mid shape: a [B, h, 1, d] query against k^T, both
        # views of split heads; numpy's one-row kernel sums a strided k^T in another order
        rng = np.random.default_rng(4)
        batch, heads, seqlen, head_dim = 8, 4, 32, 16
        q = rng.normal(0.0, 1.0, (batch, 1, heads, head_dim)).astype(np.float32)
        k = rng.normal(0.0, 1.0, (batch, seqlen, heads, head_dim)).astype(np.float32)
        q, k = q.transpose(0, 2, 1, 3), k.transpose(0, 2, 1, 3)
        k_t = k.transpose(0, 1, 3, 2)
        out = tn.bmm(Tensor(q), Tensor(k_t)).data
        assert out.tobytes() == (np.ascontiguousarray(q) @ np.ascontiguousarray(k_t)).tobytes()


def _op_cases(rng):
    """(name, forward closure) per op; each closure builds its output from the inputs it gets."""
    def arr(*shape):
        return rng.normal(0.0, 1.0, shape).astype(np.float32)

    attn = AttentionParams(**{
        f: make_parameter(arr(6, 6) if f.startswith("w") else arr(6), True, f)
        for f in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")})
    w, b = make_parameter(arr(6, 4), True, "w"), make_parameter(arr(4), True, "b")
    g, s = make_parameter(arr(6), True, "g"), make_parameter(arr(6), True, "s")
    table = make_parameter(arr(10, 6), True, "table")
    ids = rng.integers(0, 10, (2, 5))
    return {
        "add": ([arr(2, 5, 6), arr(6)], lambda a, c: tn.add(a, c)),
        "reshape": ([arr(2, 5, 6)], lambda a: tn.reshape(a, (10, 6))),
        "transpose": ([arr(2, 5, 6)], lambda a: tn.transpose(a, (0, 2, 1))),
        "relu": ([arr(2, 5, 6)], tn.relu),
        "linear_forward": ([arr(2, 5, 6)], lambda a: linear_forward(a, w, b)),
        "layer_norm": ([arr(2, 5, 6)], lambda a: layer_norm(a, g, s)),
        "softmax_lastdim": ([arr(2, 5, 6)], tn.softmax_lastdim),
        "softmax_lastdim_scaled": ([arr(2, 5, 6)], lambda a: tn.softmax_lastdim(a, 0.5)),
        "bmm": ([arr(2, 5, 6), arr(2, 6, 3)], tn.bmm),
        "embedding": ([], lambda: tn.embedding(table, ids)),
        "first_token": ([arr(2, 5, 6)], tn.first_token),
        "multi_head_attention": ([arr(2, 5, 6)], lambda a: multi_head_attention(a, attn, 2)),
        "pooled_attention": ([arr(2, 5, 6), arr(2, 1, 6)],
                             lambda a, q: multi_head_attention(a, attn, 2, q)),
        "cross_entropy_loss": ([arr(5, 4)], lambda a: cross_entropy_loss(a, np.arange(5) % 4)),
    }, [*attn.all(), w, b, g, s, table]


@pytest.mark.parametrize("op", sorted(_op_cases(np.random.default_rng(0))[0]))
def test_no_op_writes_into_its_inputs_or_outputs(op):
    """Forward and backward leave inputs, parameters, the output and the upstream gradient alone."""
    rng = np.random.default_rng(1)
    cases, params = _op_cases(rng)
    arrays, fwd = cases[op]
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    watched = [t.data for t in inputs] + [p.data for p in params]
    before = [a.copy() for a in watched]
    out = fwd(*inputs)
    out_before = out.data.copy()
    dout = rng.normal(0.0, 1.0, out.data.shape).astype(out.data.dtype)
    dout_before = dout.copy()
    # a scalar root that hands ``dout`` to ``out``, so backward() walks the whole graph
    root = Tensor(np.zeros((), out.data.dtype))
    root.node = tn.Node((out.node,), lambda _: setattr(out, "grad", dout))
    root.backward()
    assert all(t.grad is not None for t in inputs)
    for a, a0 in zip(watched + [out.data, dout], before + [out_before, dout_before]):
        assert a.tobytes() == a0.tobytes()


# graph-free, the ops that write their result into an owned input of the result's shape
CONSUMING = {"add", "relu", "layer_norm", "softmax_lastdim", "softmax_lastdim_scaled"}


@pytest.mark.parametrize("op", sorted(_op_cases(np.random.default_rng(0))[0]))
def test_graph_free_op_writes_only_into_the_owned_input_it_consumes(op):
    """Recording no graph, with owned inputs: an op writes into at most the input it consumes."""
    rng = np.random.default_rng(1)
    cases, params = _op_cases(rng)
    arrays, fwd = cases[op]
    for p in params:
        p.requires_grad = False
    inputs = [tn._owned(a) for a in arrays]
    before = [a.copy() for a in arrays]
    params_before = [p.data.copy() for p in params]
    out = fwd(*inputs)
    assert out.node is None
    assert out.owned is (op not in ("reshape", "transpose"))
    for p, p0 in zip(params, params_before):
        assert p.data.tobytes() == p0.tobytes()
    consumed = []
    for i, (t, a, a0) in enumerate(zip(inputs, arrays, before)):
        try:
            t.data
        except AttributeError:  # consumed: its data was deleted
            consumed.append(i)
            assert out.data is a  # the result was written into the consumed input
        else:
            assert a.tobytes() == a0.tobytes()
            assert t.owned is (op not in ("reshape", "transpose"))  # a view shares the array
    assert consumed == ([0] if op in CONSUMING else [])


def _shared_inputs(rng):
    """(name, make) per value no op may write into; ``make`` gives the tensor and its array."""
    def arr(*shape):
        return rng.normal(0.0, 1.0, shape or (2, 5, 6)).astype(np.float32)

    def parameter():
        p = make_parameter(arr(), False, "p")
        return p, p.data

    def store_chunk():
        chunk = arr()
        chunk.flags.writeable = False
        return Tensor(chunk), chunk

    def caller_array():
        a = arr()
        return Tensor(a), a

    def view():
        x = tn._owned(arr())
        return tn.reshape(x, (10, 6)), x.data

    def reshaped():
        x = tn._owned(arr())
        tn.reshape(x, (10, 6))
        return x, x.data

    def transposed():
        x = tn._owned(arr())
        tn.transpose(x, (0, 2, 1))
        return x, x.data

    def saved_by_linear():
        x = tn._owned(arr())
        linear_forward(x, make_parameter(arr(6, 4), True, "w"), make_parameter(arr(4), False, "b"))
        return x, x.data

    def saved_by_bmm():
        x = tn._owned(arr())
        tn.bmm(x, Tensor(arr(2, 6, 3), requires_grad=True))
        return x, x.data

    return {f.__name__: f for f in (parameter, store_chunk, caller_array, view, reshaped,
                                    transposed, saved_by_linear, saved_by_bmm)}


@pytest.mark.parametrize("op", sorted(CONSUMING))
@pytest.mark.parametrize("source", sorted(_shared_inputs(np.random.default_rng(0))))
def test_graph_free_op_never_writes_into_a_shared_array(op, source):
    """Not a parameter, a read-only store chunk, a caller's array, a view or a saved array."""
    rng = np.random.default_rng(2)
    cases, params = _op_cases(rng)
    for p in params:
        p.requires_grad = False
    fwd = cases[op][1]
    x, array = _shared_inputs(rng)[source]()
    before = array.copy()
    others = [Tensor(a) for a in cases[op][0][1:]]
    out = fwd(x, *others)
    assert out.owned and not np.shares_memory(out.data, array)
    assert array.tobytes() == before.tobytes()
    assert x.data is not None  # not consumed


def test_reading_a_consumed_tensor_raises():
    x = tn._owned(np.random.default_rng(3).normal(0.0, 1.0, (2, 5, 6)).astype(np.float32))
    array = x.data
    out = tn.relu(x)
    assert out.data is array and out.owned
    for read in (lambda: x.data, lambda: x.shape, lambda: tn.relu(x), lambda: tn.add(out, x)):
        with pytest.raises(AttributeError, match="'data'"):
            read()
