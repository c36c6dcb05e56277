"""Loss tests: forced oracle values, brute-force scalar oracles, and
finite-difference gradients for every term."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from protodensity.losses import (LossConfig, density_loss, diversity_loss,
                                 proto_feature_loss, total_loss)
from protodensity.tensor import ShapeError, Tensor, gradcheck_rel_error

GTOL = 1e-6


def grad_of(fn, at):
    leaf = Tensor(at, requires_grad=True)
    fn(leaf).backward()
    return leaf.grad


def check_grad(fn, at, tol=GTOL):
    err = gradcheck_rel_error(lambda a: fn(Tensor(a)), at, grad_of(fn, at))
    assert err <= tol, f"rel err {err:.3e}"


# -- config and report ---------------------------------------------------------


def test_loss_config_defaults():
    config = LossConfig()
    assert (config.lambda1, config.lambda2, config.lambda3) == (1.0, 1.0, 100.0)
    assert config.tau_cell == config.tau_bg == 0.8
    assert config.cosine
    config.validate()


@pytest.mark.parametrize("bad", [
    dict(lambda1=-0.1), dict(lambda2=-1.0), dict(lambda3=-5.0),
    dict(tau_cell=1.5), dict(tau_bg=-1.0001),
])
def test_loss_config_rejects(bad):
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(LossConfig(), **bad).validate()


# -- density loss --------------------------------------------------------------


def test_density_loss_hand_value():
    pred = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    gt = np.array([[[1.0, 0.0], [0.0, 4.0]]])
    assert float(density_loss(pred, gt).data) == (4.0 + 9.0) / 4.0


def test_density_loss_2d_coercion(rng):
    pred = rng.normal(size=(4, 4))
    gt = rng.normal(size=(4, 4))
    a = float(density_loss(pred, gt).data)
    b = float(density_loss(pred[None], gt[None]).data)
    assert a == b


def test_density_loss_zero_on_match(rng):
    m = rng.normal(size=(2, 3, 3))
    assert float(density_loss(m, m).data) == 0.0


def test_density_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        density_loss(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))


def test_density_loss_grad(rng):
    pred = rng.normal(size=(2, 5, 5))
    gt = rng.normal(size=(2, 5, 5))
    check_grad(lambda t: density_loss(t, Tensor(gt)), pred)


# -- prototype-to-feature loss -------------------------------------------------


def test_proto_feature_hand_value():
    # B=1, k_cell=k_bg=1: distance 3 at the gt argmax, 5 at the argmin -> 8
    gt = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    dist = np.zeros((1, 2, 2, 2))
    dist[0, 0, 0, 1] = 3.0
    dist[0, 1, 0, 0] = 5.0
    assert float(proto_feature_loss(dist, gt, 1, 1).data) == 8.0


def proto_feature_oracle(dist, gt, k_cell, k_bg):
    b, k, h, w = dist.shape
    total = 0.0
    for n in range(b):
        flat = gt[n].ravel()
        hmax, wmax = divmod(int(np.argmax(flat)), w)
        hmin, wmin = divmod(int(np.argmin(flat)), w)
        total += dist[n, :k_cell, hmax, wmax].sum() / k_cell
        total += dist[n, k_cell:, hmin, wmin].sum() / k_bg
    return total / b


def test_proto_feature_matches_oracle(rng):
    for _ in range(20):
        dist = np.abs(rng.normal(size=(3, 5, 4, 4)))
        gt = rng.normal(size=(3, 4, 4))
        ours = float(proto_feature_loss(dist, gt, 3, 2).data)
        assert abs(ours - proto_feature_oracle(dist, gt, 3, 2)) <= 1e-12


def test_proto_feature_tie_takes_first_row_major():
    gt = np.zeros((1, 2, 3))  # all-equal: argmax and argmin both at (0, 0)
    dist = np.arange(2 * 2 * 3, dtype=np.float64).reshape(1, 2, 2, 3)
    expected = dist[0, 0, 0, 0] + dist[0, 1, 0, 0]
    assert float(proto_feature_loss(dist, gt, 1, 1).data) == expected


def test_proto_feature_zero_when_prototypes_match_features():
    rng = np.random.default_rng(0)
    gt = rng.normal(size=(2, 3, 3))
    dist = np.abs(rng.normal(size=(2, 4, 3, 3))) + 0.1
    for n in range(2):
        flat = gt[n].ravel()
        hmax, wmax = divmod(int(np.argmax(flat)), 3)
        hmin, wmin = divmod(int(np.argmin(flat)), 3)
        dist[n, :2, hmax, wmax] = 0.0
        dist[n, 2:, hmin, wmin] = 0.0
    assert float(proto_feature_loss(dist, gt, 2, 2).data) == 0.0


def test_proto_feature_k_mismatch():
    with pytest.raises(ShapeError):
        proto_feature_loss(np.zeros((1, 4, 2, 2)), np.zeros((1, 2, 2)), 1, 2)


def tape_nodes(out) -> int:
    """Nodes reachable from ``out`` through ``_parents``, ``out`` included."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_proto_feature_tape_size_independent_of_batch(rng):
    counts = []
    for b in (2, 32):
        dist = Tensor(np.abs(rng.normal(size=(b, 8, 4, 4))), requires_grad=True)
        out = proto_feature_loss(dist, rng.normal(size=(b, 4, 4)), 4, 4)
        counts.append(tape_nodes(out))
    assert counts[0] == counts[1]


def test_proto_feature_grad(rng):
    dist = np.abs(rng.normal(size=(2, 4, 3, 3))) + 0.05
    gt = rng.normal(size=(2, 3, 3))
    check_grad(lambda t: proto_feature_loss(t, Tensor(gt), 2, 2), dist)


# -- diversity loss ------------------------------------------------------------


def test_diversity_identical_prototypes_is_fifth():
    p = np.tile(np.array([0.3, 0.4, 0.5, 0.1]), (4, 1))
    value = float(diversity_loss(p, 2, 2, 0.8, 0.8).data)
    assert value == pytest.approx(0.2, abs=1e-15)


def test_diversity_orthogonal_prototypes_is_zero():
    p = np.eye(4)
    assert float(diversity_loss(p, 2, 2, 0.8, 0.8).data) == 0.0


def test_diversity_single_member_groups_are_zero():
    p = np.random.default_rng(0).uniform(0.1, 1.0, size=(2, 5))
    assert float(diversity_loss(p, 1, 1, 0.8, 0.8).data) == 0.0


def diversity_oracle(p, k_cell, k_bg, tau_cell, tau_bg, cosine=True):
    def group_term(rows, tau):
        k_g = len(rows)
        if k_g < 2:
            return 0.0
        if cosine:
            rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        acc = 0.0
        for i in range(k_g):
            for j in range(k_g):
                if i == j:
                    continue
                acc += max(float(rows[i] @ rows[j]) - tau, 0.0)
        return acc / (k_g * (k_g - 1))
    return 0.5 * (group_term(p[:k_cell], tau_cell) + group_term(p[k_cell:], tau_bg))


def test_diversity_matches_pairwise_oracle(rng):
    for _ in range(20):
        p = rng.uniform(0.05, 1.0, size=(5, 6))
        ours = float(diversity_loss(p, 3, 2, 0.1, 0.3).data)
        assert abs(ours - diversity_oracle(p, 3, 2, 0.1, 0.3)) <= 1e-12


def test_diversity_tau_zero_equals_mean_positive_cosine(rng):
    p = rng.normal(size=(3, 8))
    rowsn = p / np.linalg.norm(p, axis=1, keepdims=True)
    expected = 0.0
    for i in range(3):
        for j in range(3):
            if i != j:
                expected += max(float(rowsn[i] @ rowsn[j]), 0.0)
    expected = 0.5 * expected / 6.0
    # all three rows form the cell group; a lone bg prototype contributes 0
    full = np.vstack([p, np.ones((1, 8))])
    assert float(diversity_loss(full, 3, 1, 0.0, 0.0).data) == pytest.approx(expected, abs=1e-12)


def test_diversity_raw_dot_mode(rng):
    p = rng.uniform(0.1, 0.9, size=(4, 3))
    ours = float(diversity_loss(p, 2, 2, 0.1, 0.1, cosine=False).data)
    assert ours == pytest.approx(
        diversity_oracle(p, 2, 2, 0.1, 0.1, cosine=False), abs=1e-12)


def test_diversity_zero_row_raises_in_cosine_mode():
    p = np.ones((4, 3))
    p[1] = 0.0
    with pytest.raises(ValueError):
        diversity_loss(p, 2, 2, 0.8, 0.8)


def test_diversity_row_count_mismatch():
    with pytest.raises(ShapeError):
        diversity_loss(np.ones((4, 3)), 2, 3, 0.8, 0.8)


def test_diversity_grad(rng):
    p = rng.uniform(0.1, 1.0, size=(5, 4))
    check_grad(lambda t: diversity_loss(t, 3, 2, 0.05, 0.1), p)


def test_diversity_grad_raw_dot(rng):
    p = rng.uniform(0.1, 1.0, size=(4, 4))
    check_grad(lambda t: diversity_loss(t, 2, 2, 0.05, 0.1, cosine=False), p)


# -- total loss ----------------------------------------------------------------


def random_instance(rng, b=2, k_cell=2, k_bg=2, d=6, hw=4):
    return dict(
        pred=rng.normal(size=(b, hw, hw)),
        gt=rng.normal(size=(b, hw, hw)),
        dist=np.abs(rng.normal(size=(b, k_cell + k_bg, hw, hw))) + 0.05,
        protos=rng.uniform(0.05, 1.0, size=(k_cell + k_bg, d)),
    )


def test_total_is_weighted_sum(rng):
    inst = random_instance(rng)
    config = LossConfig(lambda1=2.0, lambda2=0.5, lambda3=10.0,
                        tau_cell=0.1, tau_bg=0.2)
    total, report = total_loss(inst["pred"], inst["gt"], inst["dist"],
                               inst["protos"], 2, 2, config)
    d = float(density_loss(inst["pred"], inst["gt"]).data)
    p = float(proto_feature_loss(inst["dist"], inst["gt"], 2, 2).data)
    v = float(diversity_loss(inst["protos"], 2, 2, 0.1, 0.2).data)
    assert report.density == d and report.proto_feature == p and report.diversity == v
    assert float(total.data) == report.total
    assert report.total == pytest.approx(2.0 * d + 0.5 * p + 10.0 * v, rel=1e-12)


def test_total_zeroed_lambdas_isolate_terms(rng):
    inst = random_instance(rng)
    _, report = total_loss(inst["pred"], inst["gt"], inst["dist"], inst["protos"],
                           2, 2, LossConfig(lambda2=0.0, lambda3=0.0, lambda1=1.0))
    assert report.total == report.density


def test_total_validates_config(rng):
    inst = random_instance(rng)
    with pytest.raises(ValueError):
        total_loss(inst["pred"], inst["gt"], inst["dist"], inst["protos"],
                   2, 2, LossConfig(lambda1=-1.0))


def test_total_loss_grads(rng):
    inst = random_instance(rng)
    config = LossConfig(tau_cell=0.05, tau_bg=0.05)
    check_grad(lambda t: total_loss(t, Tensor(inst["gt"]), Tensor(inst["dist"]),
                                    Tensor(inst["protos"]), 2, 2, config)[0],
               inst["pred"])
    check_grad(lambda t: total_loss(Tensor(inst["pred"]), Tensor(inst["gt"]), t,
                                    Tensor(inst["protos"]), 2, 2, config)[0],
               inst["dist"])
    check_grad(lambda t: total_loss(Tensor(inst["pred"]), Tensor(inst["gt"]),
                                    Tensor(inst["dist"]), t, 2, 2, config)[0],
               inst["protos"])


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_total_nonnegative_terms_property(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    _, report = total_loss(inst["pred"], inst["gt"], inst["dist"], inst["protos"],
                           2, 2, LossConfig())
    assert report.density >= 0.0
    assert report.proto_feature >= 0.0
    assert report.diversity >= 0.0
