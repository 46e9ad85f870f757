import tracemalloc

import numpy as np
import pytest

from shapefuse import autodiff as ad
from shapefuse import bodymodel as bm
from shapefuse import network

from gradcheck import grad_check


def central_diff(f, x, step=1e-5):
    """Independent finite-difference gradient oracle (plain floats)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
    return g


class TestRecordExamples:
    def test_product_rule(self):
        tape = ad.Tape()
        x, y = tape.variable(2.0), tape.variable(3.0)
        z = x * y
        assert z.item() == 6.0
        gx, gy = ad.gradient(z, [x, y])
        assert gx == 3.0 and gy == 2.0

    def test_exp_identity(self):
        tape = ad.Tape()
        x = tape.variable(0.0)
        z = ad.exp(x)
        assert z.item() == 1.0
        (g,) = ad.gradient(z, [x])
        assert g == 1.0

    def test_nll_term_stationary_at_mean(self):
        # log(2*pi*var) + (theta - mu)^2 / var evaluated at theta == mu
        theta, var = 0.7, 1.3
        tape = ad.Tape()
        mu = tape.variable(theta)
        v = tape.variable(var)
        z = ad.log(2 * np.pi * v) + ad.square(theta - mu) / v
        assert z.item() == pytest.approx(np.log(2 * np.pi * var))
        g_mu, _ = ad.gradient(z, [mu, v])
        assert g_mu == 0.0


class TestBackwardExamples:
    def test_square(self):
        tape = ad.Tape()
        x = tape.variable(3.0)
        (g,) = ad.gradient(x * x, [x])
        assert g == 6.0

    def test_quotient(self):
        tape = ad.Tape()
        x, y = tape.variable(1.0), tape.variable(2.0)
        gx, gy = ad.gradient(x / y, [x, y])
        assert gx == pytest.approx(0.5)
        assert gy == pytest.approx(-0.25)

    def test_gaussian_nll_three_params_vs_fd(self):
        # full diagonal-Gaussian NLL on a 3-parameter toy: mu, log-var, target fixed
        target = np.array([0.3, -1.2, 2.0])

        def loss(params):
            mu = params[:3]
            raw = params[3:]
            total = 0.0
            for i in range(3):
                var = ad.exp(raw[i]) if isinstance(raw[i], ad.Node) else np.exp(raw[i])
                resid = target[i] - mu[i]
                sq = resid * resid
                total = total + ad.log(2 * np.pi * var) + sq / var
            return total

        x0 = np.array([0.1, -0.5, 1.0, 0.2, -0.3, 0.4])
        tape = ad.Tape()
        leaves = [tape.variable(v) for v in x0]
        root = loss(leaves)
        analytic = np.array([float(g) for g in ad.gradient(root, leaves)])
        fd = central_diff(lambda x: float(ad.value_of(loss(list(x)))), x0)
        rel = np.abs(analytic - fd) / (np.abs(analytic) + 1e-12)
        assert rel.max() < 1e-4

    def test_root_must_be_scalar(self):
        tape = ad.Tape()
        x = tape.variable(np.ones(3))
        with pytest.raises(ValueError):
            ad.gradient(x * 2.0, [x])

    def test_unreachable_nodes_get_zero_gradient(self):
        tape = ad.Tape()
        x = tape.variable(1.0)
        y = tape.variable(5.0)
        _ = y * y  # recorded but not part of the root's graph
        root = x * 3.0
        gx, gy = ad.gradient(root, [x, y])
        assert gx == 3.0 and gy == 0.0


class TestGradientSweep:
    def test_results_do_not_alias(self):
        tape = ad.Tape()
        x, y = tape.variable(np.ones(3)), tape.variable(np.ones(3))
        gx, gy = ad.gradient(ad.sum_(x + y), [x, y])
        assert gx is not gy
        gx[:] = 7.0
        np.testing.assert_array_equal(gy, np.ones(3))

    def test_interior_node_gets_its_adjoint(self):
        tape = ad.Tape()
        x = tape.variable(np.array([0.5, -2.0, 3.0]))
        y = x * 3.0
        root = ad.sum_(y * y + y)
        gy, gx = ad.gradient(root, [y, x])
        yv = x.value * 3.0
        np.testing.assert_array_equal(gy, 2.0 * yv + 1.0)
        np.testing.assert_array_equal(gx, (2.0 * yv + 1.0) * 3.0)

    def test_sweep_frees_interior_adjoints(self):
        # 40 elementwise ops over a 1 MB array: holding every interior
        # adjoint to the end of the sweep would take about 40 MB
        tape = ad.Tape()
        x = tape.variable(np.linspace(0.0, 1.0, 2**17))
        y = x
        for _ in range(40):
            y = y * 1.0001
        root = ad.sum_(y)
        tracemalloc.start()
        try:
            (g,) = ad.gradient(root, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        np.testing.assert_allclose(g, 1.0001**40, rtol=1e-12)


class TestGradCheck:
    def test_sum_of_squares(self):
        def f(xs):
            total = 0.0
            for x in xs:
                total = total + x * x
            return total

        assert grad_check(f, [1.0, 2.0, 3.0], step=1e-5) < 1e-8

    def test_reports_instead_of_raising(self):
        # a deliberately wrong function of the step cannot make grad_check throw
        def f(xs):
            return xs[0] * xs[0]

        err = grad_check(f, [2.0])
        assert isinstance(err, float)

    def test_zero_gradient_measured_absolutely(self):
        # d(x^3)/dx is 0 at 0; central differences give step^2, which a
        # purely relative error would blow up by the denominator floor
        assert grad_check(lambda xs: xs[0] * xs[0] * xs[0], [0.0], step=1e-5) < 1e-8

    def test_wrong_gradient_reported(self):
        # value_of takes the second term off the tape: analytic gradient 2,
        # true derivative 3, so the relative error is 0.5
        def f(xs):
            return xs[0] * 2.0 + float(ad.value_of(xs[0]))

        assert grad_check(f, [1.5]) == pytest.approx(0.5, rel=1e-6)


class TestDomainErrors:
    def test_log_nonpositive(self):
        tape = ad.Tape()
        x = tape.variable(-1.0)
        with pytest.raises(ad.DomainError):
            ad.log(x)

    def test_sqrt_nonpositive(self):
        tape = ad.Tape()
        x = tape.variable(0.0)
        with pytest.raises(ad.DomainError):
            ad.sqrt(x)

    def test_division_by_zero(self):
        tape = ad.Tape()
        x = tape.variable(1.0)
        with pytest.raises(ad.DomainError):
            _ = x / 0.0


class TestPrimitivePartials:
    """Every registered primitive matches central differences at random points."""

    CASES = [
        ("add", lambda a, b: a + b, 2, (-5, 5)),
        ("sub", lambda a, b: a - b, 2, (-5, 5)),
        ("mul", lambda a, b: a * b, 2, (-5, 5)),
        ("div", lambda a, b: a / b, 2, (0.2, 5)),
        ("exp", lambda a: ad.exp(a), 1, (-2, 2)),
        ("log", lambda a: ad.log(a), 1, (0.2, 5)),
        ("sqrt", lambda a: ad.sqrt(a), 1, (0.2, 5)),
        ("sin", lambda a: ad.sin(a), 1, (-3, 3)),
        ("cos", lambda a: ad.cos(a), 1, (-3, 3)),
        ("neg", lambda a: -a, 1, (-5, 5)),
        ("square", lambda a: ad.square(a), 1, (-5, 5)),
        ("clamp", lambda a: ad.clamp(a, -1.0, 1.0), 1, (-2, 2)),
        ("elu", lambda a: ad.elu(a), 1, (-3, 3)),
    ]

    @pytest.mark.parametrize("name,fn,arity,rng_range", CASES, ids=[c[0] for c in CASES])
    def test_matches_central_differences(self, name, fn, arity, rng_range):
        rng = np.random.default_rng(42)
        lo, hi = rng_range
        worst = 0.0
        checked = 0
        for _ in range(100):
            x = rng.uniform(lo, hi, size=arity)
            if name == "clamp" and np.any(np.abs(np.abs(x) - 1.0) < 1e-3):
                continue  # keep finite differences away from the kink
            err = grad_check(lambda xs: fn(*xs), x, step=1e-6)
            worst = max(worst, err)
            checked += 1
        assert checked > 80
        assert worst < 1e-6

    def test_clamp_subgradient_zero_at_boundary(self):
        tape = ad.Tape()
        x = tape.variable(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        z = ad.sum_(ad.clamp(x, -1.0, 1.0))
        (g,) = ad.gradient(z, [x])
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0, 0.0, 0.0])


class TestRandomExpressionTrees:
    """Backward equals chain-rule composition, checked against sympy."""

    def test_against_symbolic_oracle(self):
        import sympy as sp

        rng = np.random.default_rng(7)
        n_vars = 3
        sym_vars = sp.symbols(f"x0:{n_vars}", real=True)

        unary_ops = [
            (ad.sin, sp.sin),
            (ad.cos, sp.cos),
            (lambda a: ad.exp(ad.clamp(a, -3.0, 3.0) * 0.5), None),  # not mirrored
            (ad.square, lambda s: s**2),
        ]
        binary_ops = [
            (lambda a, b: a + b, lambda a, b: a + b),
            (lambda a, b: a - b, lambda a, b: a - b),
            (lambda a, b: a * b, lambda a, b: a * b),
        ]

        for trial in range(25):
            # build one random expression applying the same ops to both systems
            depth = int(rng.integers(2, 5))

            def build(d):
                if d == 0:
                    i = int(rng.integers(0, n_vars))
                    return (lambda leaves: leaves[i]), sym_vars[i]
                if rng.random() < 0.4:
                    f_ad, f_sp = unary_ops[int(rng.integers(0, 2))]  # sin/cos only
                    sub_ad, sub_sp = build(d - 1)
                    return (lambda leaves: f_ad(sub_ad(leaves))), f_sp(sub_sp)
                f_ad, f_sp = binary_ops[int(rng.integers(0, len(binary_ops)))]
                l_ad, l_sp = build(d - 1)
                r_ad, r_sp = build(d - 1)
                return (lambda leaves: f_ad(l_ad(leaves), r_ad(leaves))), f_sp(l_sp, r_sp)

            expr_ad, expr_sp = build(depth)
            x = rng.uniform(-1.5, 1.5, size=n_vars)

            tape = ad.Tape()
            leaves = [tape.variable(v) for v in x]
            root = expr_ad(leaves)
            if not isinstance(root, ad.Node):
                continue  # degenerate tree without any variable
            got = np.array([float(g) for g in ad.gradient(root, leaves)])

            subs = dict(zip(sym_vars, x))
            want = np.array(
                [float(sp.diff(expr_sp, v).evalf(subs=subs)) for v in sym_vars]
            )
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestTensorOps:
    def test_matmul_gradients_vs_fd(self):
        rng = np.random.default_rng(3)
        a0 = rng.normal(size=(2, 3))
        b0 = rng.normal(size=(3, 4))

        def f_flat(x):
            a = np.asarray(x[:6]).reshape(2, 3)
            b = np.asarray(x[6:]).reshape(3, 4)
            return float((a @ b).sum())

        tape = ad.Tape()
        a = tape.variable(a0)
        b = tape.variable(b0)
        root = ad.sum_(a @ b)
        ga, gb = ad.gradient(root, [a, b])
        fd = central_diff(f_flat, np.concatenate([a0.ravel(), b0.ravel()]))
        np.testing.assert_allclose(np.concatenate([ga.ravel(), gb.ravel()]), fd, atol=1e-8)

    def test_batched_matmul_broadcast_gradient(self):
        rng = np.random.default_rng(4)
        a0 = rng.normal(size=(5, 2, 3))
        w0 = rng.normal(size=(3, 2))
        tape = ad.Tape()
        w = tape.variable(w0)
        root = ad.sum_(ad.square(a0 @ w))
        (gw,) = ad.gradient(root, [w])
        step = 1e-6
        fd = np.zeros_like(w0)
        for i in range(3):
            for j in range(2):
                wp, wm = w0.copy(), w0.copy()
                wp[i, j] += step
                wm[i, j] -= step
                fd[i, j] = (((a0 @ wp) ** 2).sum() - ((a0 @ wm) ** 2).sum()) / (2 * step)
        np.testing.assert_allclose(gw, fd, rtol=1e-6, atol=1e-7)

    def test_take_fancy_scatter(self):
        idx = np.array([0, 2, 2, 1])
        tape = ad.Tape()
        x = tape.variable(np.array([1.0, 2.0, 3.0]))
        root = ad.sum_(ad.square(ad.take(x, idx, axis=0)))
        (g,) = ad.gradient(root, [x])
        np.testing.assert_allclose(g, [2.0, 4.0, 12.0])

    def test_take_axis1(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 4))
        idx = np.array([1, 1, 3])
        tape = ad.Tape()
        x = tape.variable(x0)
        root = ad.sum_(ad.square(ad.take(x, idx, axis=1)))
        (g,) = ad.gradient(root, [x])
        want = np.zeros_like(x0)
        np.add.at(want, (slice(None), idx), 2 * x0[:, idx])
        np.testing.assert_allclose(g, want)

    def test_take_conv_tables_match_add_at(self):
        # the network's gathers: a (B, N + 1) batch by each conv stage's
        # (patches, taps) table, whose index N reads the zero pad; the
        # scatter is np.add.at's, sum for sum in element order
        net = network.PredictorNet.for_model(bm.generate_toy_model(0, 50, 8))
        rng = np.random.default_rng(35)
        for idx in net._conv_tables:
            x0 = rng.normal(size=(4, idx.max() + 1))
            weights = rng.normal(size=(4,) + idx.shape)
            tape = ad.Tape()
            x = tape.variable(x0)
            (g,) = ad.gradient(ad.sum_(ad.take(x, idx, axis=1) * weights), [x])
            want = np.zeros_like(x0)
            np.add.at(want, (slice(None), idx), weights)
            np.testing.assert_array_equal(g, want)

    def test_transpose_is_c_ordered_and_permutes_adjoints_back(self):
        rng = np.random.default_rng(36)
        x0 = rng.normal(size=(2, 3, 4))
        probe = rng.normal(size=(3, 4, 2))
        tape = ad.Tape()
        x = tape.variable(x0)
        out = ad.transpose(x, (1, 2, 0))
        assert out.value.flags.c_contiguous
        np.testing.assert_array_equal(out.value, x0.transpose(1, 2, 0))
        (g,) = ad.gradient(ad.sum_(out * probe), [x])
        assert g.flags.c_contiguous
        np.testing.assert_array_equal(g, probe.transpose(2, 0, 1))
        assert ad.transpose(x0, (1, 2, 0)).flags.c_contiguous

    @pytest.mark.parametrize("shape,axis", [((2, 5), -1), ((2, 5, 2), 1), ((5, 3), 0)])
    def test_take_index_table_scatter_adds(self, shape, axis):
        # a 2-D table with repeats (and -1 for the last element), as the conv
        # gather uses: each element's adjoint is the sum of the adjoints of
        # every slot that reads it
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=shape)
        idx = np.array([[0, 4, -1], [2, 0, 4]])
        tape = ad.Tape()
        x = tape.variable(x0)
        out = ad.take(x, idx, axis=axis)
        want_value = np.take(x0, idx, axis=axis)
        assert out.value.flags.c_contiguous
        np.testing.assert_array_equal(out.value, want_value)
        weights = rng.normal(size=want_value.shape)
        (g,) = ad.gradient(ad.sum_(out * weights), [x])

        want = np.zeros_like(x0)
        moved_x = np.moveaxis(want, axis, 0)  # a view: writes land in want
        moved_w = np.moveaxis(weights, [axis % x0.ndim, axis % x0.ndim + 1], [0, 1])
        for p in range(2):
            for k in range(3):
                moved_x[idx[p, k]] += moved_w[p, k]
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-15)
        assert ad.take(x0, idx, axis=axis).flags.c_contiguous

    def test_getitem_rejects_array_keys(self):
        tape = ad.Tape()
        x = tape.variable(np.ones((3, 4)))
        for key in (np.array([0, 2]), [0, 2], (slice(None), np.array([1, 1])),
                    np.array([True, False, True])):
            with pytest.raises(ValueError):
                _ = x[key]
        assert x[1:, 2].shape == (2,)

    EINSUM_CASES = [
        ("bvkl,bvl->bvk", [(2, 3, 3, 3), (2, 3, 3)], (0, 1)),
        ("bpk,kc->bpc", [(2, 4, 3), (3, 5)], (0, 1)),
        ("bkl,bl->bk", [(3, 3, 3), (3, 3)], (1,)),     # first operand constant
        ("ij->ji", [(2, 3)], (0,)),
        ("bij,ij->b", [(4, 2, 3), (2, 3)], (0, 1)),
    ]

    @pytest.mark.parametrize("spec,shapes,taped", EINSUM_CASES, ids=[c[0] for c in EINSUM_CASES])
    def test_einsum_vjps_match_central_differences(self, spec, shapes, taped):
        rng = np.random.default_rng(9)
        values = [rng.normal(size=s) for s in shapes]
        probe = rng.normal(size=np.einsum(spec, *values).shape)

        tape = ad.Tape()
        operands = [tape.variable(v) if i in taped else v for i, v in enumerate(values)]
        out = ad.einsum(spec, *operands)
        np.testing.assert_array_equal(out.value, np.einsum(spec, *values))
        grads = ad.gradient(ad.sum_(out * probe), [operands[i] for i in taped])

        for i, got in zip(taped, grads):
            def f(flat, i=i):
                args = list(values)
                args[i] = flat.reshape(shapes[i])
                return float((np.einsum(spec, *args) * probe).sum())

            fd = central_diff(f, values[i].ravel())
            np.testing.assert_allclose(got.ravel(), fd, rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("spec,n_operands", [
        ("ij,jk", 2),              # implicit output
        ("...ij,jk->...ik", 2),    # ellipsis
        ("ii->i", 1),              # diagonal
        ("ij,jk->iik", 2),         # repeated output subscript
        ("ij->i", 1),              # sum inside one operand
        ("ij,jk->i", 2),           # k summed inside the second operand
        ("ij,jk,kl->il", 2),       # operand count
        ("i1,1->i", 2),            # not a letter (numpy rejects it)
        ("ij,jk->ik", 2),          # j has sizes 2 and 1: no broadcasting
    ])
    def test_einsum_rejects_unsupported_subscripts(self, spec, n_operands):
        tape = ad.Tape()
        second = np.ones((1, 2)) if spec == "ij,jk->ik" else np.ones((2, 2))
        operands = [tape.variable(np.ones((2, 2)))] + [second] * (n_operands - 1)
        with pytest.raises(ValueError):
            ad.einsum(spec, *operands)

    def test_stack_concat_reshape_einsum(self):
        tape = ad.Tape()
        x = tape.variable(np.array([1.0, 2.0]))
        y = tape.variable(np.array([3.0, 4.0]))
        s = ad.stack([x, y], axis=0)               # (2, 2)
        c = ad.concat([s, np.ones((1, 2))], axis=0)  # (3, 2)
        t = ad.einsum("ij->ji", c)                 # (2, 3)
        r = ad.reshape(t, (6,))
        root = ad.sum_(ad.square(r))
        gx, gy = ad.gradient(root, [x, y])
        np.testing.assert_allclose(gx, 2 * x.value)
        np.testing.assert_allclose(gy, 2 * y.value)

    def test_where_routes_gradients(self):
        tape = ad.Tape()
        x = tape.variable(np.array([-1.0, 2.0]))
        z = ad.where(x.value > 0, x * 3.0, x * 5.0)
        (g,) = ad.gradient(ad.sum_(z), [x])
        np.testing.assert_allclose(g, [5.0, 3.0])


def elu_by_composition(x):
    """ELU as the four primitives it was built from: the bit-for-bit oracle
    for `ad.elu`."""
    return ad.where(ad.value_of(x) > 0, x, ad.exp(ad.clamp(x, hi=0.0)) - 1.0)


class TestElu:
    def test_value_and_adjoint_equal_the_composition_bit_for_bit(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([rng.normal(scale=3.0, size=2000), [0.0, -0.0, 5e-324, -5e-324,
                            1e-300, -1e-300, 30.0, -30.0, -800.0, 800.0, np.inf, -np.inf]])
        # adjoints of both signs, with zeros of both signs among them
        g = np.concatenate([rng.normal(size=x.size - 4), [0.0, -0.0, 0.0, -0.0]])
        g = g[rng.permutation(x.size)]
        results = []
        for fn in (ad.elu, elu_by_composition):
            tape = ad.Tape()
            leaf = tape.variable(x)
            out = fn(leaf)
            (grad,) = ad.gradient(ad.sum_(out * g), [leaf])
            results.append((out.value, grad, len(tape.nodes)))
        (value, grad, nodes), (want_value, want_grad, want_nodes) = results
        # the same bits, signed zeros included
        np.testing.assert_array_equal(value.view(np.int64), want_value.view(np.int64))
        np.testing.assert_array_equal(grad.view(np.int64), want_grad.view(np.int64))
        assert want_nodes - nodes == 3
        assert np.all(grad[x < 0] == g[x < 0] * np.exp(x[x < 0]))
        assert not grad[x == 0].any() and np.all(grad[x > 0] == g[x > 0])

    def test_matches_central_differences_away_from_zero(self):
        x = np.random.default_rng(32).uniform(-4.0, 4.0, size=40)
        x = x[np.abs(x) > 1e-3]
        assert grad_check(lambda xs: ad.sum_(ad.elu(ad.stack(xs)) * np.arange(len(xs))), x) < 1e-6


class TestDeterminism:
    def test_same_tape_same_gradients(self):
        def run():
            tape = ad.Tape()
            x = tape.variable(np.array([0.3, -0.7, 2.0]))
            z = ad.sum_(ad.exp(ad.sin(x)) / (1.0 + ad.square(x)))
            (g,) = ad.gradient(z, [x])
            return z.item(), g

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)

    def test_mixing_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x, y = t1.variable(1.0), t2.variable(2.0)
        with pytest.raises(ValueError):
            _ = x + y
        with pytest.raises(ValueError):  # its index would name a node of t1
            ad.gradient(x * 2.0, [y])


# every recording primitive, called on one (2, 2) operand of each tape
MULTI_OPERAND = {
    "add": ad.add,
    "sub": ad.sub,
    "mul": ad.mul,
    "div": ad.div,
    "where": lambda a, b: ad.where(np.eye(2, dtype=bool), a, b),
    "matmul": ad.matmul,
    "einsum": lambda a, b: ad.einsum("ij,jk->ik", a, b),
    "stack": lambda a, b: ad.stack([a, b]),
    "concat": lambda a, b: ad.concat([a, b], axis=1),
}

_VALUES = np.array([[0.5, -1.5], [2.0, 0.25]])
# (primitive on plain arrays, numpy's own result)
UNTAPED = {
    "add": (lambda: ad.add(_VALUES, _VALUES.T), _VALUES + _VALUES.T),
    "sub": (lambda: ad.sub(_VALUES, _VALUES.T), _VALUES - _VALUES.T),
    "mul": (lambda: ad.mul(_VALUES, _VALUES.T), _VALUES * _VALUES.T),
    "div": (lambda: ad.div(_VALUES, _VALUES.T), _VALUES / _VALUES.T),
    "neg": (lambda: ad.neg(_VALUES), -_VALUES),
    "exp": (lambda: ad.exp(_VALUES), np.exp(_VALUES)),
    "log": (lambda: ad.log(np.abs(_VALUES)), np.log(np.abs(_VALUES))),
    "sqrt": (lambda: ad.sqrt(np.abs(_VALUES)), np.sqrt(np.abs(_VALUES))),
    "sin": (lambda: ad.sin(_VALUES), np.sin(_VALUES)),
    "cos": (lambda: ad.cos(_VALUES), np.cos(_VALUES)),
    "square": (lambda: ad.square(_VALUES), _VALUES**2),
    "clamp": (lambda: ad.clamp(_VALUES, -1.0, 1.0), np.clip(_VALUES, -1.0, 1.0)),
    "where": (lambda: ad.where(_VALUES > 0, _VALUES, -_VALUES), np.abs(_VALUES)),
    "elu": (lambda: ad.elu(_VALUES),
            np.where(_VALUES > 0, _VALUES, np.exp(np.minimum(_VALUES, 0.0)) - 1.0)),
    "matmul": (lambda: ad.matmul(_VALUES, _VALUES.T), _VALUES @ _VALUES.T),
    "sum_": (lambda: ad.sum_(_VALUES), _VALUES.sum()),
    "reshape": (lambda: ad.reshape(_VALUES, (4,)), _VALUES.reshape(4)),
    "getitem": (lambda: ad.getitem(_VALUES, (slice(None), 0)), _VALUES[:, 0]),
    "take": (lambda: ad.take(_VALUES, np.array([1, 1, 0]), axis=1), _VALUES[:, [1, 1, 0]]),
    "einsum": (lambda: ad.einsum("ij,jk->ki", _VALUES, _VALUES), (_VALUES @ _VALUES).T),
    "stack": (lambda: ad.stack([_VALUES, _VALUES.T], axis=1), np.stack([_VALUES, _VALUES.T], 1)),
    "concat": (lambda: ad.concat([_VALUES, _VALUES.T]), np.concatenate([_VALUES, _VALUES.T])),
}


_COND = np.array([[True, False, True, False],
                  [False, False, True, True],
                  [True, True, False, False]])


class TestOneRecorder:
    @pytest.mark.parametrize("name", MULTI_OPERAND)
    def test_mixing_tapes_rejected(self, name):
        a, b = ad.Tape().variable(np.ones((2, 2))), ad.Tape().variable(np.ones((2, 2)))
        with pytest.raises(ValueError, match="different tapes"):
            MULTI_OPERAND[name](a, b)

    @pytest.mark.parametrize("name", UNTAPED)
    def test_plain_arrays_give_numpy_result(self, name):
        call, want = UNTAPED[name]
        got = call()
        assert type(got) is type(want)  # an ndarray, or numpy's scalar for sum_
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["einsum", "stack", "concat"])
    def test_vjps_only_for_node_operands(self, name, monkeypatch):
        # the many-operand primitives hand `_op` one VJP per Node operand and
        # none for a plain array, so an untaped call builds no closure
        call = {"einsum": lambda *xs: ad.einsum("ij,jk,kl->il", *xs),
                "stack": lambda *xs: ad.stack(list(xs), axis=1),
                "concat": lambda *xs: ad.concat(list(xs), axis=1)}[name]
        record = ad._op
        handed = []

        def recording(out, *pairs):
            handed.append([x for x, _ in pairs])
            return record(out, *pairs)

        monkeypatch.setattr(ad, "_op", recording)
        values = [_VALUES, _VALUES.T, _VALUES + 1.0]
        plain = call(*values)
        assert type(plain) is np.ndarray and handed == [[]]
        tape = ad.Tape()
        node = tape.variable(values[1])
        taped = call(values[0], node, values[2])
        assert handed[1] == [node]
        np.testing.assert_array_equal(taped.value, plain)
        np.testing.assert_array_equal(plain, {
            "einsum": np.einsum("ij,jk,kl->il", *values),
            "stack": np.stack(values, axis=1),
            "concat": np.concatenate(values, axis=1)}[name])

    @pytest.mark.parametrize("spec,n_operands", [("ij,jk", 2), ("ii->i", 1), ("ij->i", 1),
                                                  ("ij,jk,kl->il", 2), ("ij,jk->ik", 2)])
    def test_einsum_checks_untaped_subscripts(self, spec, n_operands):
        # the subscript check runs on every call, not only when recording:
        # numpy alone would accept all but the operand count
        second = np.ones((1, 2)) if spec == "ij,jk->ik" else np.ones((2, 2))
        with pytest.raises(ValueError):
            ad.einsum(spec, np.ones((2, 2)), *[second] * (n_operands - 1))

    def test_einsum_size_rejection_raises_on_every_call(self):
        # the parse is cached by subscripts and shapes; a rejection is not
        for _ in range(3):
            with pytest.raises(ValueError, match="^subscript 'j' has sizes 3 and 4$"):
                ad.einsum("ij,jk->ik", np.ones((2, 3)), np.ones((4, 5)))

    def test_einsum_parse_cache_is_bounded(self):
        limit = ad._einsum_terms.cache_info().maxsize
        assert limit is not None
        for n in range(1, limit + 21):
            ad.einsum("ij,jk->ik", np.ones((2, n)), np.ones((n, 3)))
        assert ad._einsum_terms.cache_info().currsize == limit
        hits = ad._einsum_terms.cache_info().hits
        ad.einsum("ij,jk->ik", np.ones((2, limit + 20)), np.ones((limit + 20, 3)))
        assert ad._einsum_terms.cache_info().hits == hits + 1
        assert ad._einsum_terms("ij,jk->ik", ((2, 3), (3, 4))) == (("ij", "jk"), "ik")

    @pytest.mark.parametrize("row_shape", [(1, 4), (4,)], ids=["1xn", "n"])
    @pytest.mark.parametrize("op", [
        pytest.param(ad.mul, id="mul"),
        pytest.param(lambda row, full: ad.where(_COND, row, full), id="where-first"),
        pytest.param(lambda row, full: ad.where(_COND, full, row), id="where-second"),
    ])
    def test_broadcast_operand_summed_to_its_shape(self, op, row_shape):
        # a (1, 4) or (4,) operand broadcast against a taped (3, 4) one:
        # each gets the central-difference gradient at its own shape
        rng = np.random.default_rng(12)
        probe = rng.normal(size=(3, 4))

        def f(xs):
            row = ad.reshape(ad.stack(xs[:4]), row_shape)
            full = ad.reshape(ad.stack(xs[4:]), (3, 4))
            return ad.sum_(op(row, full) * probe)

        x0 = rng.normal(size=16)
        assert grad_check(f, x0, step=1e-6) < 1e-8
        tape = ad.Tape()
        row, full = tape.variable(x0[:4].reshape(row_shape)), tape.variable(x0[4:].reshape(3, 4))
        g_row, g_full = ad.gradient(ad.sum_(op(row, full) * probe), [row, full])
        assert g_row.shape == row_shape and g_full.shape == (3, 4)

