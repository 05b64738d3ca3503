import pytest

from tests.c4 import (
    C4Decomposition,
    make_block,
    monogamous_c4_decomposition,
    verify_c4_decomposition,
)


def test_k22_single_block():
    res = monogamous_c4_decomposition(2, 2)
    assert res.status == "found"
    assert len(res.decomposition.blocks) == 1
    assert verify_c4_decomposition(res.decomposition).ok


def test_k44_certified_none():
    res = monogamous_c4_decomposition(4, 4)
    assert res.status == "none"
    assert res.nodes > 0  # search trace: the refutation really explored nodes


def test_k66_and_k68_found():
    res = monogamous_c4_decomposition(6, 6)
    assert res.status == "found" and len(res.decomposition.blocks) == 9
    assert verify_c4_decomposition(res.decomposition).ok

    res = monogamous_c4_decomposition(6, 8)
    assert res.status == "found" and len(res.decomposition.blocks) == 12
    assert verify_c4_decomposition(res.decomposition).ok

    res = monogamous_c4_decomposition(8, 6)
    assert res.status == "found"
    assert verify_c4_decomposition(res.decomposition).ok


def test_counting_shortcut_refutes_imbalanced_sides():
    # 10 > 2*4 - 2: more blocks than distinct right pairs
    res = monogamous_c4_decomposition(10, 4)
    assert res.status == "none" and res.nodes == 0


def test_budget_exhaustion_is_indeterminate():
    res = monogamous_c4_decomposition(12, 12, node_budget=3)
    assert res.status == "indeterminate"


def test_requires_even_sides():
    with pytest.raises(ValueError):
        monogamous_c4_decomposition(3, 4)


def test_verifier_rejects_broken_decompositions():
    good = monogamous_c4_decomposition(6, 6).decomposition
    # drop a block: no longer a partition
    partial = C4Decomposition(6, 6, good.blocks[:-1])
    assert not verify_c4_decomposition(partial).ok
    # duplicate left pair
    doubled = C4Decomposition(6, 6, good.blocks + (good.blocks[0],))
    assert "pair" in verify_c4_decomposition(doubled).violation or \
        "twice" in verify_c4_decomposition(doubled).violation
    # mangled block
    bad_block = (good.blocks[0][0],) * 4
    assert not verify_c4_decomposition(C4Decomposition(6, 6, (bad_block,))).ok


def test_make_block_canonical():
    assert make_block(3, 1, 2, 0) == ((1, 0), (1, 2), (3, 0), (3, 2))
