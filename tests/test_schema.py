"""The record base: construction, equality, hashing and frozen fields."""

import pytest

from npusim.address_space import PageSize, Segment
from npusim.mmu import TranslationStats
from npusim.npu import NpuConfig
from npusim.workloads import make_layer


def test_assignment_to_a_frozen_record_raises():
    seg = Segment("s", 4096, 8192)
    with pytest.raises(AttributeError):
        seg.base = 0
    with pytest.raises(AttributeError):
        del seg.length
    assert seg == Segment("s", 4096, 8192)


def test_mutable_record_assigns_and_is_unhashable():
    stats = TranslationStats()
    stats.accepted += 2
    assert stats == TranslationStats(accepted=2) != TranslationStats()
    with pytest.raises(TypeError):
        hash(stats)


def test_equal_records_hash_equal_and_are_one_dict_key():
    def key():
        return make_layer("l", 4, 64, 64), NpuConfig(), PageSize.SMALL_4K

    assert key() == key() and hash(key()) == hash(key())
    plans = {key(): "plan"}
    plans[key()] = "again"
    assert plans == {key(): "again"}
    assert key()[0] != make_layer("l", 4, 64, 128)


@pytest.mark.parametrize("args, kwargs", [
    (("s", 4096), {}),                                 # length missing
    (("s", 4096, 8192, 1), {}),                        # one too many
    (("s",), {"base": 4096, "length": 8192, "size": 1}),   # unknown
    (("s", 4096), {"base": 0, "length": 8192}),        # base given twice
])
def test_missing_unknown_or_repeated_fields_raise(args, kwargs):
    with pytest.raises(TypeError):
        Segment(*args, **kwargs)


def test_positional_and_keyword_construction_agree():
    seg = Segment("s", 4096, 8192)
    assert seg == Segment(name="s", base=4096, length=8192) \
        == Segment("s", length=8192, base=4096)
    assert vars(seg) == {"name": "s", "base": 4096, "length": 8192}
    assert repr(seg) == "Segment(name='s', base=4096, length=8192)"
    assert NpuConfig(128) == NpuConfig(array_dim=128) == NpuConfig()
