"""Cost ratchet: tape nodes and retained bytes of one taped training step,
and the peak bytes of one untaped float32 prediction and of one untaped
full-size attention call.

Unlike timings, these counts are the same on every run, so they are
pinned as upper bounds.  A change that lowers a count tightens its bound
in the same change; a change that needs more fails here, and the bound is
not loosened to let it pass.  Bytes are ``tracemalloc``'s: what the
forward leaves alive, and the peak during the backward or the
prediction, all above what was allocated before the step.
"""

import tracemalloc

import numpy as np
import pytest

from dyadsync import tensor as T
from dyadsync.rng import stream
from dyadsync.sttf import ModelConfig, SttfModel
from dyadsync.training import cross_entropy_loss

MIB = 1 << 20
SLACK = 64 << 10  # interpreter noise

# (config, batch size, tape nodes, retained MiB after the forward, backward peak MiB)
STEPS = {
    "criterion6-b8": (ModelConfig(f=81, num_joints=17, d_joint=4, layers=1, heads=2, dropout=0.1),
                      8, 76, 41.4, 62.8),
    "full-size-b1": (ModelConfig(), 1, 238, 82.0, 201.1),
}


@pytest.mark.parametrize("name", sorted(STEPS))
def test_taped_step_stays_within_its_pinned_cost(name):
    cfg, batch, nodes, retained_mib, peak_mib = STEPS[name]
    model = SttfModel(cfg, seed=0)
    frames = np.random.default_rng(5).uniform(0, 1, size=(batch, cfg.f, 2, cfg.num_joints, 2))
    labels = np.arange(batch) % 3
    tape = T.Tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = model.forward(frames, tape=tape, rng=stream(0, "dropout"))
        loss = cross_entropy_loss(out, labels)
        retained = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        T.gradient_of(loss, model.params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(tape) <= nodes
    assert retained <= retained_mib * MIB + SLACK, f"{retained / MIB:.2f} MiB retained"
    assert peak <= peak_mib * MIB + SLACK, f"{peak / MIB:.2f} MiB backward peak"


def test_float32_predict_holds_only_the_weights_of_the_op_in_flight():
    # at d_joint=8 the parameters (13.8 MiB in float32) dwarf a B=1 forward's
    # activations, so a float32 copy of every weight at once would break the bound
    cfg = ModelConfig(d_joint=8, layers=4, heads=2)
    model = SttfModel(cfg, seed=0)
    frames = np.random.default_rng(5).uniform(0, 1, size=(1, cfg.f, 2, cfg.num_joints, 2))
    param_bytes = 4 * sum(value.data.size for _, value in model.params.items())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.predict_batch(frames)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < param_bytes / 4, f"{peak / MIB:.2f} of {param_bytes / MIB:.2f} MiB"


def test_untaped_float32_spatial_attention_holds_one_scores_and_one_weights_block():
    # the spatial call of an 8-clip full-size eval batch: 648 frames of 34
    # tokens, 8 heads of 2; beside its output it may hold one block of
    # keys-major scores and one of weights, not an array of the whole stack
    cfg = ModelConfig()
    shape = (8 * cfg.f, 2 * cfg.num_joints, cfg.d_joint)
    rng = np.random.default_rng(6)
    q, k, v = (T.Tensor(rng.normal(size=shape).astype(np.float32)) for _ in range(3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out, _ = T.attention(q, k, v, cfg.heads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = out.data.nbytes + 2 * T.ATTENTION_BLOCK_BYTES + SLACK
    assert peak <= bound, f"{peak / MIB:.2f} MiB peak against {bound / MIB:.2f}"
