import os
import tracemalloc
import types

import numpy as np
import pytest

from dyadsync.checkpoint import load_model, model_kind, save_model
from dyadsync.csm_branch import CsmConfig, CsmModel
from dyadsync.errors import DataError, NumericalError
from dyadsync.sttf import ModelConfig, SttfModel

SMALL = ModelConfig(f=4, num_joints=2, d_joint=4, layers=1, heads=2, dropout=0.0)


def test_sttf_roundtrip(tmp_path):
    model = SttfModel(SMALL, seed=7)
    # make sure we are not just replaying the seed on load
    model.params.replace("head.b", np.array([0.5, -1.5, 2.25]))
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, SttfModel)
    assert loaded.config == model.config
    assert loaded.seed == 7
    before = {n: v.data.copy() for n, v in model.params.items()}
    after = {n: v.data.copy() for n, v in loaded.params.items()}
    assert sorted(before) == sorted(after)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_csm_roundtrip(tmp_path):
    model = CsmModel(CsmConfig(side=8, hidden=5), seed=3)
    model.params.replace("w2", model.params["w2"].data * 3.0)
    path = tmp_path / "csm.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, CsmModel)
    assert loaded.config.side == 8
    for name, value in model.params.items():
        assert np.array_equal(value.data, loaded.params[name].data)


def test_loaded_model_predicts_identically(tmp_path):
    rng = np.random.default_rng(0)
    model = SttfModel(SMALL, seed=1)
    x = rng.uniform(size=(3, SMALL.f, 2, SMALL.num_joints, 2))
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    assert np.array_equal(model.predict_batch(x), loaded.predict_batch(x))


def test_same_seed_saves_identical_bytes(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(SttfModel(SMALL, seed=11), a)
    save_model(SttfModel(SMALL, seed=11), b)
    assert a.read_bytes() == b.read_bytes()
    save_model(SttfModel(SMALL, seed=12), b)
    assert a.read_bytes() != b.read_bytes()


def test_kind_dispatch():
    assert model_kind(SttfModel(SMALL)) == "sttf"
    assert model_kind(CsmModel(CsmConfig(side=4, hidden=2))) == "csm"
    with pytest.raises(DataError):
        model_kind(object())


def test_rejects_corrupt_files(tmp_path):
    model = CsmModel(CsmConfig(side=4, hidden=2), seed=0)
    path = tmp_path / "ok.bin"
    save_model(model, path)
    raw = path.read_bytes()

    (tmp_path / "trunc.bin").write_bytes(raw[:-4])
    with pytest.raises(DataError):
        load_model(tmp_path / "trunc.bin")

    (tmp_path / "extra.bin").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(DataError):
        load_model(tmp_path / "extra.bin")

    (tmp_path / "tiny.bin").write_bytes(raw[:4])
    with pytest.raises(DataError):
        load_model(tmp_path / "tiny.bin")

    import struct

    garbage = b"{not json"
    (tmp_path / "badjson.bin").write_bytes(struct.pack("<Q", len(garbage)) + garbage)
    with pytest.raises(DataError, match="bad checkpoint header"):
        load_model(tmp_path / "badjson.bin")

    with pytest.raises(DataError):
        load_model(tmp_path / "never-written.bin")


def test_rejects_unknown_kind(tmp_path):
    import json
    import struct

    header = json.dumps({"kind": "vae", "seed": 0, "config": {}, "manifest": []}).encode()
    path = tmp_path / "weird.bin"
    path.write_bytes(struct.pack("<Q", len(header)) + header)
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize("config", [
    {"side": 8, "width": 3},  # unknown key
    {"side": "8"},  # wrong type
    [8, 5],  # not an object
    {"side": 0},  # fails the config's own validation
    {"side": 10**8},  # too large: w1 needs ~5e18 bytes, beyond any address space
    {"side": 10**30},  # w1's size does not fit numpy's index type
])
def test_bad_header_config_is_data_error(tmp_path, config):
    import json
    import struct

    header = json.dumps({"kind": "csm", "seed": 0, "config": config, "manifest": []}).encode()
    path = tmp_path / "badcfg.bin"
    path.write_bytes(struct.pack("<Q", len(header)) + header)
    with pytest.raises(DataError, match="badcfg.bin"):
        load_model(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(seed="x"),  # SeedSequence would reject it inside the model constructor
    lambda h: h.update(seed=-1),
    lambda h: h.update(seed=1.5),
    lambda h: h.update(manifest="w1"),  # not a list
    lambda h: h.update(manifest=["w1"]),  # entry not an object
    lambda h: h["manifest"][0].pop("name"),
    lambda h: h["manifest"][0].pop("shape"),
    lambda h: h["manifest"][0].update(shape=40),  # not a list
    lambda h: h["manifest"][0].update(  # floats that compare equal to the right shape
        shape=[float(dim) for dim in h["manifest"][0]["shape"]]),
    lambda h: h.update(kind=["csm"]),  # unhashable kind
    lambda h: h["manifest"][0].update(dtype="<f8"),  # a key the format does not have
], ids=["seed-string", "seed-negative", "seed-float", "manifest-string", "entry-string",
        "entry-no-name", "entry-no-shape", "shape-int", "shape-floats", "kind-list",
        "entry-extra-key"])
def test_bad_header_fields_are_data_errors(tmp_path, edit):
    import json
    import struct

    path = tmp_path / "badhdr.bin"
    save_model(CsmModel(CsmConfig(side=8, hidden=5), seed=0), path)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + length])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + length:])
    with pytest.raises(DataError, match="badhdr.bin"):
        load_model(path)


def test_header_that_is_not_an_object_is_parse_error(tmp_path):
    import json
    import struct

    blob = json.dumps(["kind", "seed", "config", "manifest"]).encode()
    path = tmp_path / "list.bin"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(DataError, match="list.bin"):
        load_model(path)


@pytest.mark.parametrize("where, value, param", [
    ("first", np.nan, "b1"),  # parameters are stored name-sorted: b1 comes first
    ("last", np.inf, "w2"),
    ("last", -np.inf, "w2"),
], ids=["nan-first", "inf-last", "neg-inf-last"])
def test_non_finite_parameter_is_data_error(tmp_path, where, value, param):
    path = tmp_path / "poisoned.bin"
    save_model(CsmModel(CsmConfig(side=8, hidden=5), seed=0), path)
    raw = bytearray(path.read_bytes())
    (length,) = np.frombuffer(bytes(raw[:8]), dtype="<u8")
    offset = 8 + int(length) if where == "first" else len(raw) - 8
    raw[offset:offset + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=rf"poisoned\.bin: parameter '{param}'"):
        load_model(path)


def test_save_refuses_non_finite_parameter(tmp_path):
    model = CsmModel(CsmConfig(side=8, hidden=5), seed=0)
    w1 = model.params["w1"].data.copy()
    w1[2, 3] = np.inf
    model.params.replace("w1", w1)
    model.params.replace("w2", np.full(model.params["w2"].shape, np.nan))
    path = tmp_path / "model.bin"
    # parameters are checked name-sorted: w1 comes before w2
    with pytest.raises(NumericalError, match=r"model\.bin: parameter 'w1' holds a non-finite value"):
        save_model(model, path)
    assert not path.exists()


def test_file_that_shrinks_while_it_loads_is_data_error(tmp_path, monkeypatch):
    # the size check passes on the size the open file reported, then the last
    # parameter reads short
    model = CsmModel(CsmConfig(side=4, hidden=2), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-8])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(DataError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: truncated at parameter {model.params.names()[-1]!r}"


def test_load_copies_one_parameter_at_a_time(tmp_path):
    # the largest parameter is 8% of the model's bytes, so a copy of the
    # whole body, or of the whole file, at once would break the bound
    path = tmp_path / "model.bin"
    save_model(SttfModel(ModelConfig(d_joint=4, layers=4, heads=2, dropout=0.0)), path)
    tracemalloc.start()
    try:
        model = load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sizes = [value.data.nbytes for _, value in model.params.items()]
    assert max(sizes) < 0.1 * sum(sizes)
    assert peak <= sum(sizes) + max(sizes) + 2**20
