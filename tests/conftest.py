import numpy as np
import pytest

from flowvos import autodiff as ad


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def conv2d_loops(x, w, padding=0):
    """Brute-force nested-loop cross-correlation, the independent oracle."""
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - k + 1
    ow = wd + 2 * padding - k + 1
    out = np.zeros((cout, oh, ow))
    for co in range(cout):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(cin):
                    for i in range(k):
                        for j in range(k):
                            acc += xp[ci, oy + i, ox + j] * w[co, ci, i, j]
                out[co, oy, ox] = acc
    return out


def finite_diff_grads(fn, tensors, h=1e-5):
    """Central finite differences of a scalar-valued fn over every entry."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn().item()
            flat[i] = orig - h
            fm = fn().item()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        err = np.max(np.abs(a - n) / denom)
        assert err < rtol, f"gradient mismatch: max relative error {err:.3e}"


def check_backward_matches_fd(build_loss, leaves, h=1e-5, rtol=1e-4):
    """Record build_loss() on a tape, backward, and compare against central FD."""
    for leaf in leaves:
        leaf.zero_grad()
    with ad.Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = [leaf.grad.data.copy() for leaf in leaves]
    numeric = finite_diff_grads(build_loss, leaves, h=h)
    assert_grads_close(analytic, numeric, rtol=rtol)
