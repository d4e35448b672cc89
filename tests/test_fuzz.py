"""Truncation and single-byte substitution fuzzing of the binary readers.

Every mutated checkpoint or PPM must either load or raise DataFormatError
(exit code 2 through the CLI); any other exception is a reader bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaseq import data as D
from kaseq import traineval as tv
from kaseq.detector import DetectorConfig, DetectorParams
from kaseq.errors import DataFormatError

TINY = DetectorConfig(image_size=4, patch_size=4, d_model=4, heads=2, enc_layers=1,
                      dec_layers=1, queries=1, num_categories=2, ffn_dim=1)


def mutate(raw: bytes, at: int, shift: int) -> bytes:
    """Cut ``raw`` to its first ``at`` bytes when ``shift`` is 0; otherwise
    add ``shift`` (1..255) to byte ``at`` modulo 256, so the byte changes."""
    if shift == 0:
        return raw[:at]
    return raw[:at] + bytes([(raw[at] + shift) % 256]) + raw[at + 1:]


def mutations(size: int):
    """Any truncation or any single-byte substitution, drawn about equally often."""
    at = st.integers(0, size - 1)
    return st.one_of(st.tuples(at, st.just(0)), st.tuples(at, st.integers(1, 255)))


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    params = DetectorParams.init(TINY, np.random.default_rng(0))
    tv.save_checkpoint(tv.make_checkpoint(params, TINY, {"task_subset": [1, 2]}), str(path))
    return path


def test_checkpoint_mutations_load_or_raise_data_format_error(saved_checkpoint):
    raw = saved_checkpoint.read_bytes()
    target = saved_checkpoint.with_name("mutated.ckpt")

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(mutations(len(raw)))
    def check(mutation):
        target.write_bytes(mutate(raw, *mutation))
        try:
            tv.detector_from_checkpoint(tv.load_checkpoint(str(target)))
        except DataFormatError:
            pass

    check()


def test_ppm_mutations_load_or_raise_data_format_error():
    # Small enough to try every truncation and every substitution.
    image = np.random.default_rng(1).uniform(size=(2, 3, 3))
    raw = D._encode_ppm(image)
    for at in range(len(raw)):
        for shift in range(256):
            try:
                D._decode_ppm(mutate(raw, at, shift), "fuzz.ppm")
            except DataFormatError:
                pass
