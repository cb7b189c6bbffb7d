"""The hidden-layer probe's bits: its initialization, and the AE, probe and
losses of a small kl_hidden defence run on the toy CNN. The sizes are tiny so
that no BLAS thread count moves them."""

import hashlib
import math

import numpy as np
import pytest

from pmdef.models import build_model, build_probe
from pmdef.training import DefenceLossSpec, OptimizerConfig, ProbeConfig, train_defence
from toys import cnn_classifier_spec, image_ae_spec, param_digest


def _probe_params(probe):
    """The probe's trainable [b, w]. Reads a probe ``Model`` and the older
    two-tensor probe type alike, so the bits pinned here can be checked
    against earlier revisions without an edit."""
    return probe.store.trainable() if hasattr(probe, "store") else probe.trainable()


def _frozen_cnn():
    clf = build_model(cnn_classifier_spec(), 1)  # conv, relu, maxpool, flatten, dense, softmax on 6x6x1
    clf.store.freeze_all()
    return clf


@pytest.mark.parametrize("source_layer", [0, 1, 2, 3])
@pytest.mark.parametrize("dim, seed", [(1, 0), (4, 11), (10, 5)])
def test_build_probe_draws_glorot_uniform_weights_and_a_zero_bias(source_layer, dim, seed):
    clf = _frozen_cnn()
    b, w = _probe_params(build_probe(clf, source_layer, dim, seed))
    feat = math.prod(clf.spec.layer_shapes[source_layer])
    limit = np.sqrt(6.0 / (feat + dim))
    assert np.array_equal(w.data, np.random.default_rng(seed).uniform(-limit, limit, (feat, dim)))
    assert np.array_equal(b.data, np.zeros(dim))
    assert w.requires_grad and b.requires_grad


# (AE digest, probe [b, w] digest, epoch losses as float.hex) per source layer. A maxpool
# capture (2) and the flatten after it (3) feed the probe the same values, so they pin the
# same bits; a relu capture (1) is the spec-order activation before the pool.
_PINNED = {
    0: (
        "284e6757af30b914864dfdd918cdafe2833b59e2d72c5d10b4eb2faf95382da2",
        "acf5a9c31c08925a4a33b3428f02c46c4551bde18afe9d94042fff5724c6d5d7",
        ["0x1.7405dc9d75569p-3", "0x1.4c548fa956eaep-4", "0x1.375cb42fecd97p-4"],
    ),
    1: (
        "75a37750d1e607feead0c8f794efe2aad3ac3b62623af88dacc1d45ba9e5ccd8",
        "f7331a1129c361aaabdeea115322566f3edd4adc94ea0d870f05db6456e0915b",
        ["0x1.c84080caa73f3p-4", "0x1.b6b8eb17d3e87p-5", "0x1.929dce887ddf4p-5"],
    ),
    2: (
        "1bfc967d37d1c7f443bb6cba90decf70699389463c0c52ed01bf393bd19453fe",
        "c0d874b1ffb4c21f8b3f76275fe3f22e038e42b6ce6a85bf4728bf838f9969c8",
        ["0x1.92c2521c3500dp-4", "0x1.0b8c3839d26e3p-4", "0x1.cab41eb17e3d3p-5"],
    ),
}
_PINNED[3] = _PINNED[2]


@pytest.mark.parametrize("source_layer", sorted(_PINNED))
def test_kl_hidden_training_keeps_its_pinned_bits(source_layer):
    x = np.random.default_rng(2).random((12, 6, 6, 1))
    ae = build_model(image_ae_spec(), 3)
    spec = DefenceLossSpec(kind="kl_hidden", hidden_weight=0.5, probe=ProbeConfig(source_layer=source_layer, dim=4))
    cfg = OptimizerConfig(learning_rate=1e-2, batch_size=5, epochs=3, seed=7)
    report, probe = train_defence(ae, _frozen_cnn(), x, spec, cfg)
    digest = hashlib.sha256()
    for t in _probe_params(probe):
        digest.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    ae_hex, probe_hex, losses = _PINNED[source_layer]
    assert param_digest(ae.store).hex() == ae_hex
    assert digest.hexdigest() == probe_hex
    assert [loss.hex() for loss in report.epoch_losses] == losses
