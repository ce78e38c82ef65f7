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


def _op_chain_ce(logits, target, weights, rows, cols, scale, floor):
    """The fused cross entropy spelled out in single ops."""
    block = ad.transpose(ad.gather_cols(ad.transpose(logits), rows))
    q = ad.softmax_cols(ad.mul(ad.gather_cols(block, cols), scale))
    wt = ad.constant(np.asarray(weights)[:, None] * target)
    return ad.mul(ad.sum_all(ad.mul(wt, ad.log(q, floor=floor))), -1.0 / len(cols))


class TestSoftmaxCrossEntropy:
    FLOOR = 1e-12
    ROWS = [5, 0, 2, 3]

    def setup_case(self, cols):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(6, 9))
        data[2, 4] = data[2, 0] = -30.0  # softmax of these falls below the floor
        logits = ad.parameter(data, "logits")
        target = rng.random((len(self.ROWS), len(cols)))
        target /= target.sum(axis=0, keepdims=True)
        weights = rng.uniform(0.5, 2.0, len(self.ROWS))
        return logits, target, weights

    def fused(self, logits, target, weights, cols):
        return ad.softmax_cross_entropy(
            logits, cols, target, weights, scale=1.5, floor=self.FLOOR, rows=self.ROWS
        )

    @pytest.mark.parametrize("cols", [[8, 1, 4, 6, 0], [1, 4, 1, 6, 4]])
    def test_value_and_gradient_match_the_op_chain(self, cols):
        logits, target, weights = self.setup_case(cols)
        loss = self.fused(logits, target, weights, cols)
        ad.backward(loss)
        fused_grad = logits.grad.copy()
        logits.zero_grad()
        chain = _op_chain_ce(logits, target, weights, self.ROWS, cols, 1.5, self.FLOOR)
        ad.backward(chain)
        np.testing.assert_allclose(loss.data, chain.data, rtol=1e-13)
        np.testing.assert_allclose(fused_grad, logits.grad, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("cols", [[8, 1, 4, 6, 0], [1, 4, 1, 6, 4]])
    def test_central_differences_including_clamped_entries(self, cols):
        logits, target, weights = self.setup_case(cols)
        block = logits.data[np.ix_(self.ROWS, cols)] * 1.5
        q = np.exp(block - block.max(axis=0)) / np.exp(block - block.max(axis=0)).sum(axis=0)
        assert np.any(q < self.FLOOR)  # the clamp is exercised
        ad.backward(self.fused(logits, target, weights, cols))
        coords = [(logits, i) for i in range(logits.data.size)]
        fd = finite_difference(
            lambda: float(self.fused(logits, target, weights, cols).data[0, 0]),
            {"logits": logits}, coords, step=1e-6,
        )
        np.testing.assert_allclose(logits.grad.reshape(-1), fd, rtol=1e-6, atol=1e-9)
        assert np.all(logits.grad[[1, 4], :] == 0.0)  # rows never selected
        assert np.all(logits.grad[:, [c for c in range(9) if c not in cols]] == 0.0)

    def test_no_columns_is_zero(self):
        logits, _, weights = self.setup_case([])
        loss = self.fused(logits, np.zeros((4, 0)), weights, [])
        assert float(loss.data[0, 0]) == 0.0

    def test_target_shape_mismatch_names_node(self):
        logits, target, weights = self.setup_case([0, 1])
        with pytest.raises(ad.ShapeError, match="logits"):
            self.fused(logits, target[:, :1], weights, [0, 1])


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


def _dense_mean(neighbours, m):
    """The (m, m) averaging matrix of a neighbour index, built entry by entry."""
    k = neighbours.shape[1]
    mat = np.zeros((m, m))
    for i in range(m):
        for n in neighbours[i]:
            mat[n, i] += 1.0 / k
    return mat


class TestNeighbourMean:
    @pytest.mark.parametrize("neighbours", [
        [[0]],  # one point averages itself
        [[1, 2], [0, 2], [0, 1]],
        [[1, 1], [0, 0], [1, 0], [0, 1]],  # points 2 and 3 are named by no row
        [[3], [3], [3], [0]],  # point 3 named three times, 1 and 2 never
    ])
    def test_value_and_gradient_match_the_dense_matrix(self, neighbours):
        nb = np.asarray(neighbours)
        m = nb.shape[0]
        rng = np.random.default_rng(5)
        a = ad.parameter(rng.normal(size=(3, m)), "a")
        upstream = rng.normal(size=(3, m))
        mat = _dense_mean(nb, m)
        out = ad.neighbour_mean(a, nb)
        np.testing.assert_allclose(out.data, a.data @ mat, rtol=0, atol=1e-12)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(upstream))))
        np.testing.assert_allclose(a.grad, upstream @ mat.T, rtol=0, atol=1e-12)

    def test_knn_graph_matches_knn_mean_matrix(self):
        from segdiscover.model import knn_indices, knn_mean_matrix

        rng = np.random.default_rng(8)
        # a far outlier, so no row names it
        coords = np.concatenate([rng.normal(size=(62, 3)), np.full((1, 3), 50.0)])
        nb = knn_indices(coords, 5)
        assert np.bincount(nb.reshape(-1), minlength=63)[62] == 0
        mat = knn_mean_matrix(coords, 5, nb)
        a = ad.parameter(rng.normal(size=(7, 63)), "a")
        upstream = rng.normal(size=(7, 63))
        out = ad.neighbour_mean(a, nb)
        np.testing.assert_allclose(out.data, a.data @ mat, rtol=0, atol=1e-12)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(upstream))))
        np.testing.assert_allclose(a.grad, upstream @ mat.T, rtol=0, atol=1e-12)

    def test_constant_input_records_no_tape(self):
        out = ad.neighbour_mean(ad.constant(np.ones((2, 3))), np.array([[1], [2], [0]]))
        assert out._parents == () and out._backward is None

    @pytest.mark.parametrize("neighbours, match", [
        (np.array([0, 1, 2]), "integer array"),
        (np.zeros((3, 1, 1), dtype=np.intp), "integer array"),
        (np.zeros((3, 0), dtype=np.intp), "integer array"),
        (np.zeros((3, 1)), "integer array"),
        (np.zeros((2, 1), dtype=np.intp), "2 neighbour rows for 3 points"),
        (np.array([[1], [3], [0]]), r"outside \[0, 3\)"),
        (np.array([[1], [-1], [0]]), r"outside \[0, 3\)"),
    ])
    def test_bad_neighbours_raise_a_shape_error_naming_the_node(self, neighbours, match):
        h = ad.parameter(np.zeros((2, 3)), "enc2.out")
        with pytest.raises(ad.ShapeError, match=match) as exc:
            ad.neighbour_mean(h, neighbours)
        assert "neighbour_mean enc2.out" in str(exc.value)
