import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapefuse.rng import named_rng

SRC = Path(__file__).resolve().parents[1] / "src"
MASK = 2**64 - 1


def oracle_rng(seed, *keys):
    """The documented derivation, rebuilt here: the seed and each int key
    taken modulo 2**64, each string key as the little-endian first 8 bytes
    of its UTF-8 sha256, all fed to one `SeedSequence`."""
    def word(key):
        if isinstance(key, str):
            return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")
        return key & MASK

    return np.random.default_rng(np.random.SeedSequence([seed & MASK] + [word(k) for k in keys]))


CASES = [(0,), (7, "sample", 3, 1), (1, "shape", 0), (-1, "a"), (2**70 + 5, "é", -3)]


@pytest.mark.parametrize("args", CASES, ids=[repr(c) for c in CASES])
def test_matches_seed_sequence_oracle(args):
    np.testing.assert_array_equal(named_rng(*args).integers(0, 2**32, size=8),
                                  oracle_rng(*args).integers(0, 2**32, size=8))


def test_draws_are_pinned():
    assert named_rng(0).integers(0, 2**32, size=3).tolist() == [3653403231, 2735729615,
                                                                 2195314465]
    assert named_rng(7, "sample", 3, 1).integers(0, 2**32, size=3).tolist() == [
        2938356579, 4085287924, 3507207677]
    assert named_rng(1, "shape", 0).standard_normal(2).tolist() == [-0.28961967236550445,
                                                                    0.5370286615834606]
    assert named_rng(-1, "a").integers(0, 2**32, size=2).tolist() == [1786411702, 3246855144]


def test_same_draws_under_any_hash_seed():
    code = ("from shapefuse.rng import named_rng; "
            "print(named_rng(3, 'pose_source', 'x', 2).integers(0, 2**32, size=4).tolist())")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        outputs.append(run.stdout.strip())
    want = str(named_rng(3, "pose_source", "x", 2).integers(0, 2**32, size=4).tolist())
    assert outputs == [want, want]


def test_key_boundaries_give_distinct_streams():
    a = named_rng(0, "a", 1).integers(0, 2**32, size=4)
    b = named_rng(0, "a1").integers(0, 2**32, size=4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1.0), "1", None])
def test_non_int_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        named_rng(seed, "x")


@pytest.mark.parametrize("key", [True, np.bool_(False), 1.5, None, b"x"])
def test_key_neither_int_nor_str_rejected(key):
    with pytest.raises(ValueError, match="keys"):
        named_rng(1, "x", key)


def test_numpy_ints_draw_the_int_stream():
    np.testing.assert_array_equal(named_rng(np.int64(1), np.uint8(3)).integers(0, 2**32, size=4),
                                  named_rng(1, 3).integers(0, 2**32, size=4))
