"""Autodiff: forward oracles, analytic gradients, finite differences."""

import numpy as np
import pytest

from segdiscover import autodiff as ad


def finite_difference(f, params, coords, step=1e-4):
    """Central finite differences of a scalar function at chosen entries.

    ``coords`` is a list of (param, flat_index); the function is re-run
    with the entry nudged both ways. Independent of the tape machinery.
    """
    grads = []
    for p, flat in coords:
        original = p.data.flat[flat]
        p.data.flat[flat] = original + step
        up = f()
        p.data.flat[flat] = original - step
        down = f()
        p.data.flat[flat] = original
        grads.append((up - down) / (2.0 * step))
    return np.array(grads)


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)


class TestForward:
    def test_identity_linear_layer(self):
        w = ad.constant(np.eye(2))
        b = ad.constant(np.zeros((2, 1)))
        x = ad.constant(np.array([[3.0], [4.0]]))
        y = ad.add(ad.matmul(w, x), b)
        np.testing.assert_array_equal(y.data, [[3.0], [4.0]])

    def test_softmax_symmetry(self):
        y = ad.softmax_cols(ad.constant(np.zeros((3, 1))))
        np.testing.assert_allclose(y.data, np.full((3, 1), 1.0 / 3.0), atol=1e-15)

    def test_two_layer_net_matches_straight_line_oracle(self):
        rng = np.random.default_rng(0)
        w1 = rng.normal(size=(4, 3))
        b1 = rng.normal(size=(4, 1))
        w2 = rng.normal(size=(2, 4))
        b2 = rng.normal(size=(2, 1))
        x = np.array([[1.0], [2.0], [3.0]])

        # straight-line re-implementation of the same arithmetic
        h = np.maximum(w1 @ x + b1, 0.0)
        expected = w2 @ h + b2

        out = ad.add(
            ad.matmul(ad.constant(w2), ad.relu(ad.add(ad.matmul(ad.constant(w1), ad.constant(x)), ad.constant(b1)))),
            ad.constant(b2),
        )
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=0)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        w = ad.parameter(rng.normal(size=(5, 5)), "w")
        x = ad.constant(rng.normal(size=(5, 7)))
        a = ad.softmax_cols(ad.matmul(w, x)).data
        b = ad.softmax_cols(ad.matmul(w, x)).data
        assert np.array_equal(a, b)

    def test_matmul_shape_mismatch_names_node(self):
        w = ad.parameter(np.zeros((2, 3)), "enc.w")
        x = ad.constant(np.zeros((2, 4)), name="x")
        with pytest.raises(ad.ShapeError, match="enc.w"):
            ad.matmul(w, x)


class TestBackward:
    def test_sum_of_linear_map(self):
        w = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), "w")
        x = ad.constant(np.array([[1.0], [1.0]]))
        loss = ad.sum_all(ad.matmul(w, x))
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0], [1.0, 1.0]])

    def test_softmax_cross_entropy_analytic_gradient(self):
        # d(CE)/dlogits = softmax(logits) - target
        logits = ad.parameter(np.array([[0.0], [0.0]]), "logits")
        target = np.array([[1.0], [0.0]])
        pred = ad.softmax_cols(logits)
        loss = ad.mul(ad.sum_all(ad.mul(ad.constant(target), ad.log(pred, floor=1e-12))), -1.0)
        ad.backward(loss)
        np.testing.assert_allclose(logits.grad, [[-0.5], [0.5]], atol=1e-12)

    def test_non_scalar_output_rejected(self):
        w = ad.parameter(np.ones((2, 2)), "w")
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.matmul(w, ad.constant(np.ones((2, 2)))))

    def test_unused_parameter_gradient_stays_zero(self):
        used = ad.parameter(np.ones((2, 2)), "used")
        unused = ad.parameter(np.ones((2, 2)), "unused")
        loss = ad.sum_all(ad.matmul(used, ad.constant(np.ones((2, 1)))))
        ad.backward(loss)
        assert np.array_equal(unused.grad, np.zeros((2, 2)))

    def test_gradient_accumulates_over_reuse(self):
        w = ad.parameter(np.array([[2.0]]), "w")
        y = ad.mul(w, w)  # w^2, d/dw = 2w = 4
        ad.backward(ad.sum_all(y))
        np.testing.assert_allclose(w.grad, [[4.0]])


class TestOneTape:
    def test_backward_spends_every_intermediate_and_keeps_values_and_grads(self):
        rng = np.random.default_rng(4)
        w = ad.parameter(rng.normal(size=(3, 2)), "w")
        x = rng.normal(size=(2, 5))
        pre = ad.matmul(w, ad.constant(x))
        hidden = ad.relu(pre)
        loss = ad.sum_all(ad.mul(hidden, hidden))
        value = loss.data.copy()
        ad.backward(loss)
        for node in (pre, hidden, loss):
            assert not node._parents and node._backward is None
        np.testing.assert_array_equal(loss.data, value)
        h = np.maximum(w.data @ x, 0.0)
        np.testing.assert_allclose(w.grad, (2.0 * h) @ x.T, rtol=1e-14)
        assert w._parents == () and w.requires_grad

    def test_a_second_backward_through_a_spent_node_names_it(self):
        w = ad.parameter(np.ones((2, 2)), "w")
        hidden = ad.matmul(w, ad.constant(np.ones((2, 1))))
        hidden.name = "enc.hidden"
        ad.backward(ad.sum_all(hidden))
        grad = w.grad.copy()
        with pytest.raises(ValueError, match=r"enc\.hidden"):
            ad.backward(ad.sum_all(ad.mul(hidden, 2.0)))
        np.testing.assert_array_equal(w.grad, grad)  # nothing was accumulated

    def test_no_tape_records_nothing_and_recording_resumes(self):
        w = ad.parameter(np.eye(2), "w")
        x = ad.constant(np.ones((2, 3)))
        with ad.no_tape():
            y = ad.relu(ad.matmul(w, x))
        np.testing.assert_array_equal(y.data, np.ones((2, 3)))
        assert y._parents == () and y._backward is None
        with pytest.raises(RuntimeError), ad.no_tape():
            raise RuntimeError
        assert ad.matmul(w, x)._backward is not None


def _random_three_layer(rng):
    params = {
        "w1": ad.parameter(rng.normal(size=(6, 4)) * 0.7, "w1"),
        "b1": ad.parameter(rng.normal(size=(6, 1)) * 0.1, "b1"),
        "w2": ad.parameter(rng.normal(size=(5, 6)) * 0.7, "w2"),
        "b2": ad.parameter(rng.normal(size=(5, 1)) * 0.1, "b2"),
        "w3": ad.parameter(rng.normal(size=(3, 5)) * 0.7, "w3"),
    }
    x = rng.normal(size=(4, 8))
    t = rng.random((3, 8))
    t /= t.sum(axis=0)

    def forward():
        h1 = ad.relu(ad.add(ad.matmul(params["w1"], ad.constant(x)), params["b1"]))
        h2 = ad.l2_normalize_cols(ad.add(ad.matmul(params["w2"], h1), params["b2"]))
        logits = ad.matmul(params["w3"], h2)
        pred = ad.softmax_cols(logits)
        return ad.mul(ad.sum_all(ad.mul(ad.constant(t), ad.log(pred, floor=1e-12))), -1.0 / 8)

    return params, forward


class TestFiniteDifferences:
    def test_three_layer_net_gradients(self):
        rng = np.random.default_rng(7)
        params, forward = _random_three_layer(rng)
        loss = forward()
        ad.backward(loss)

        coords = []
        for p in params.values():
            for flat in rng.choice(p.data.size, size=min(2, p.data.size), replace=False):
                coords.append((p, int(flat)))
        fd = finite_difference(lambda: float(forward().data[0, 0]), params, coords)
        analytic = np.array([p.grad.flat[flat] for p, flat in coords])
        assert relative_error(analytic, fd).max() < 1e-3

    def test_randomized_cases_match_finite_differences(self):
        # spec-level property: 100 randomized op compositions
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            params, forward = _random_three_layer(rng)
            for p in params.values():
                p.zero_grad()
            loss = forward()
            ad.backward(loss)
            p = params["w2"]
            flat = int(rng.integers(p.data.size))
            fd = finite_difference(lambda: float(forward().data[0, 0]), params, [(p, flat)])
            worst = max(worst, float(relative_error(np.array([p.grad.flat[flat]]), fd)[0]))
        assert worst < 1e-3

    def test_gather_and_concat_gradients(self):
        rng = np.random.default_rng(13)
        w = ad.parameter(rng.normal(size=(3, 4)), "w")
        x = rng.normal(size=(4, 6))

        def forward():
            y = ad.matmul(w, ad.constant(x))
            parts = ad.concat_cols([ad.gather_cols(y, [0, 2, 2]), ad.gather_cols(y, [5])])
            return ad.mean_all(ad.mul(parts, parts))

        loss = forward()
        ad.backward(loss)
        coords = [(w, i) for i in range(w.data.size)]
        fd = finite_difference(lambda: float(forward().data[0, 0]), {"w": w}, coords)
        analytic = np.array([w.grad.flat[i] for _, i in coords])
        assert relative_error(analytic, fd).max() < 1e-3


class TestGatherBackward:
    @pytest.mark.parametrize("indices", [[4, 0, 2], [1, 3, 1, 1, 0], [-1, 4]])
    def test_matches_a_scatter_add_reference(self, indices):
        rng = np.random.default_rng(3)
        a = ad.parameter(rng.normal(size=(3, 5)), "a")
        upstream = rng.normal(size=(3, len(indices)))
        ad.backward(ad.sum_all(ad.mul(ad.gather_cols(a, indices), ad.constant(upstream))))
        expected = np.zeros((3, 5))
        np.add.at(expected, (slice(None), np.asarray(indices)), upstream)
        np.testing.assert_array_equal(a.grad, expected)


class TestSumInOrder:
    def test_value_is_a_chain_of_adds_then_a_scale(self):
        # in order 1 + 1e16 rounds to 1e16 and the total is 0; numpy's
        # pairwise sum of the same entries gives -1
        data = np.array([[1.0], [1e16], [-1e16], [1.0], [0.5], [0.0], [2.0], [-7.5], [3.0], [1.0]])
        a = ad.parameter(data, "a")
        chain = ad.mul(_chain_sum([ad.constant(v) for v in data.reshape(-1)]), 0.2)
        out = ad.sum_in_order(a, 0.2)
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == chain.data[0, 0] == 0.0
        ad.backward(out)
        assert np.array_equal(a.grad, np.full_like(data, 0.2))


def _chain_sum(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return acc


class TestFusedLinear:
    """``matmul`` with ``bias`` against the op chain."""

    def setup_case(self, rng):
        w = ad.parameter(rng.normal(size=(4, 3)), "w")
        x = ad.parameter(rng.normal(size=(3, 6)), "x")
        b = ad.parameter(rng.normal(size=(4, 1)), "b")
        return w, x, b

    def test_value_and_gradients_equal_the_op_chain_bit_for_bit(self):
        rng = np.random.default_rng(41)
        w, x, b = self.setup_case(rng)
        upstream = ad.constant(rng.normal(size=(4, 6)))
        fused = ad.matmul(w, x, bias=b)
        ad.backward(ad.sum_all(ad.mul(fused, upstream)))
        grads = [p.grad.copy() for p in (w, x, b)]
        for p in (w, x, b):
            p.zero_grad()
        chain = ad.add(ad.matmul(w, x), b)
        ad.backward(ad.sum_all(ad.mul(chain, upstream)))
        assert np.array_equal(fused.data, chain.data)
        for got, p in zip(grads, (w, x, b)):
            assert np.array_equal(got, p.grad), p.name
        assert fused._parents is None  # one node, spent

    @pytest.mark.parametrize("untracked", [None, "w", "x", "b"])
    def test_central_differences(self, untracked):
        rng = np.random.default_rng(43)
        w, x, b = self.setup_case(rng)
        operands = {"w": w, "x": x, "b": b}
        if untracked is not None:
            operands[untracked] = ad.constant(operands[untracked].data)
        upstream = ad.constant(rng.normal(size=(4, 6)))

        def forward():
            y = ad.matmul(operands["w"], operands["x"], bias=operands["b"])
            return ad.sum_all(ad.mul(ad.mul(y, y), upstream))

        ad.backward(forward())
        tracked = {n: p for n, p in operands.items() if n != untracked}
        coords = [(p, i) for p in tracked.values() for i in range(p.data.size)]
        fd = finite_difference(lambda: float(forward().data[0, 0]), tracked, coords, step=1e-6)
        analytic = np.array([p.grad.flat[i] for p, i in coords])
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)
        if untracked is not None:
            assert operands[untracked].grad is None

    def test_bias_shape_mismatch_names_the_nodes(self):
        w = ad.parameter(np.zeros((2, 3)), "enc.w")
        x = ad.constant(np.zeros((3, 4)), name="x")
        with pytest.raises(ad.ShapeError, match=r"enc\.w @ x \+ enc\.b"):
            ad.matmul(w, x, bias=ad.parameter(np.zeros((3, 1)), "enc.b"))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        params = {
            "enc.w": rng.normal(size=(3, 4)),
            "enc.b": rng.normal(size=(3, 1)),
            "head.p": rng.normal(size=(4, 2)),
        }
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, params)
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ad.save_checkpoint(path, {"a": np.zeros((1, 1))})
        blob = path.read_bytes()
        assert blob[:4] == b"NOPS"
        assert int.from_bytes(blob[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNKxxxxxxxx")
        with pytest.raises(ValueError, match="magic"):
            ad.load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ad.save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3)})
        good = path.read_bytes()
        path.write_bytes(good[:-5])
        with pytest.raises(ValueError, match="truncated"):
            ad.load_checkpoint(path)

    def test_a_repeated_parameter_name_is_refused_by_file_and_name(self, tmp_path):
        path = tmp_path / "twice.ckpt"
        ad.save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3)})
        blob = path.read_bytes()
        # the header, then the one record twice: the second `a` used to win
        path.write_bytes(blob + blob[8:])
        with pytest.raises(ValueError, match=r"twice\.ckpt: parameter a appears twice"):
            ad.load_checkpoint(path)
