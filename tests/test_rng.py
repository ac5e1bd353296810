import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpsim._rng import (
    _mix64,
    checked_seed,
    derive_key,
    hash_limit,
    premixed_keys,
    response_uniform,
    round_bits,
    round_hash,
    substream,
)
from ldpsim.randomizers import rr_param


def test_derive_key_deterministic_and_label_sensitive():
    assert derive_key(7, "population") == derive_key(7, "population")
    assert derive_key(7, "population") != derive_key(8, "population")
    assert derive_key(7, "a") != derive_key(7, "b")
    assert derive_key(7, 1, 2) != derive_key(7, 2, 1)


def test_substream_reproducible():
    a = substream(42, "x").random(5)
    b = substream(42, "x").random(5)
    assert np.array_equal(a, b)
    # the widest seed is accepted; one past either end would alias a seed inside
    assert np.array_equal(substream(2**64 - 1, "x").random(5), substream(2**64 - 1, "x").random(5))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"^seed {seed} is outside \\[0, 2\\*\\*64\\)$"):
            substream(seed, "x")


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    # derive_key would truncate 1.5 to 1, so it would name seed 1's experiment
    with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not an integer$"):
        checked_seed(seed)
    with pytest.raises(ValueError, match="is not an integer"):
        substream(seed, "x")


def test_a_numpy_integer_seed_is_the_same_seed():
    assert checked_seed(np.uint64(5)) == 5
    assert np.array_equal(substream(np.uint64(5), "x").random(5), substream(5, "x").random(5))


def _kernel_uniforms(seed, users, round_index):
    """The kernel's uniform draws ``(h >> 11) * 2**-53`` of ``users`` in one round."""
    hashes = round_hash(premixed_keys(seed, users), round_index)
    return (hashes >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _scalar_uniforms(seed, users, round_index):
    return np.array([response_uniform(seed, int(u), round_index) for u in users])


def test_scalar_and_vector_response_draws_agree():
    users = np.arange(1000, dtype=np.int64)
    vec = _kernel_uniforms(99, users, round_index=17)
    assert vec.tolist() == _scalar_uniforms(99, users, 17).tolist()
    assert ((vec >= 0) & (vec < 1)).all()


def test_response_draws_vary_by_round_and_user():
    keys = premixed_keys(5, np.arange(200, dtype=np.int64))
    r0, r1 = round_hash(keys, 0), round_hash(keys, 1)
    assert not np.array_equal(r0, r1)
    assert len(np.unique(r0)) == len(r0)
    assert len(np.unique(r0 >> np.uint64(11))) == len(r0)  # the draws, not only the hashes


def test_response_draws_roughly_uniform():
    keys = premixed_keys(1234, np.arange(200_000, dtype=np.int64))
    laws = [0.25, 0.5]
    limits = [hash_limit(p) for p in laws]
    for cell, p in enumerate(laws):
        assert abs(round_bits(keys, 3, limits, cell).mean() - p) < 0.005, p


def test_keyed_draws_agree_with_the_scalar_draw():
    users = np.array([0, 1, 2, 17, 10_378, 2**31, 2**40 + 3, 2**62], dtype=np.int64)
    for seed in (0, 99, 2**64 - 1):
        keys = premixed_keys(seed, users)
        assert keys.dtype == np.uint64
        for round_index in (0, 1, 32, 10**6):
            assert round_hash(keys, round_index).dtype == np.uint64
            assert _kernel_uniforms(seed, users, round_index).tolist() == _scalar_uniforms(seed, users, round_index).tolist()
    # a user's key does not depend on which other users are hashed with it
    assert np.array_equal(premixed_keys(5, users)[3:5], premixed_keys(5, users[3:5]))
    assert np.array_equal(premixed_keys(5, users)[7:], premixed_keys(5, users[7:].view(np.uint64)))


def _threshold_laws(draws):
    grid = (draws[:40].astype(np.float64) * 2.0**-53).tolist()  # exact k * 2**-53 points, drawn ones
    grid += [2.0**-53, 0.5, 1.0 - 2.0**-53, 5e-324]
    laws = [0.0, 1.0] + grid + [rr_param(v, e) for v in (0, 1) for e in (0.05, 0.5, 1.0, math.log(3.0), 2.0, 30.0)]
    return sorted({q for p in laws for q in (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0))})


def test_integer_threshold_is_the_float_comparison():
    users = np.arange(4000, dtype=np.int64)
    keys = premixed_keys(7, users)
    hashes = round_hash(keys, 3)
    uniforms = _scalar_uniforms(7, users, 3)
    laws = _threshold_laws(hashes >> np.uint64(11))
    assert 0.0 in laws and 1.0 in laws and len(laws) > 150
    for p in laws:
        limit = hash_limit(p)
        assert type(limit) is int and 0 <= limit < 2**64
        if p < 1.0:  # an integer limit on the draw, shifted: its low 11 bits are clear
            assert limit % 2**11 == 0 and limit <= (2**53 - 1) << 11, p
            assert np.array_equal(hashes < np.uint64(limit), uniforms < p), p
        assert np.array_equal(round_bits(keys, 3, [limit], 0), uniforms < p), p
    assert hash_limit(0.0) == 0 and hash_limit(1.0) == 2**64 - 1
    # at a drawn value the draw itself is not below the law, the next float up is
    k = int(hashes[0]) >> 11
    assert hash_limit(k * 2.0**-53) == k << 11 and hash_limit(math.nextafter(k * 2.0**-53, 1.0)) == (k + 1) << 11


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0), h=st.integers(0, 2**64 - 1))
def test_integer_threshold_matches_any_law(p, h):
    # every law below 1: a hash is below the law's hash limit exactly when its draw is below the law
    q = (h >> 11) * 2.0**-53
    for law in (p, q, math.nextafter(q, 0.0), math.nextafter(q, 1.0)):
        if law < 1.0:
            assert (h < hash_limit(law)) == (q < law), law


_RNG_SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
_ROUNDS = st.one_of(st.sampled_from([0, 1, 2**30 - 1, 2**30, 2**31 + 5, 2**64 - 1]), st.integers(0, 2**64 - 1))
_EDGE_LAWS = [0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0] + [
    rr_param(v, e) for v in (0, 1) for e in (0.05, 0.5, 1.0, math.log(3.0), 2.0, 30.0)
]


def _laws_around(seed, uid, round_index, extra):
    """The edge laws, ``extra``, and the user's drawn value with the floats on either side of it."""
    q = response_uniform(seed, uid, round_index)
    return _EDGE_LAWS + [extra, q, math.nextafter(q, 0.0), math.nextafter(q, 1.0)]


@settings(max_examples=150, deadline=None)
@given(seed=_RNG_SEEDS, uid=st.integers(0, 2**62), round_index=_ROUNDS, extra=st.floats(0.0, 1.0))
def test_public_draw_and_limit_give_the_scalar_bit(seed, uid, round_index, extra):
    keys = premixed_keys(seed, np.array([uid], dtype=np.uint64))
    h = int(round_hash(keys, round_index)[0])
    for p in _laws_around(seed, uid, round_index, extra):
        expected = response_uniform(seed, uid, round_index) < p
        if p < 1.0:
            assert (h < hash_limit(p)) == expected, p
        assert round_bits(keys, round_index, [hash_limit(p)], 0)[0] == expected, p


@settings(max_examples=150, deadline=None)
@given(
    seed=_RNG_SEEDS,
    uids=st.lists(st.integers(0, 2**62), min_size=1, max_size=6, unique=True),
    round_index=_ROUNDS,
    extra=st.floats(0.0, 1.0),
)
def test_kernel_bits_are_the_scalar_bits(seed, uids, round_index, extra):
    keys = premixed_keys(seed, np.array(uids, dtype=np.uint64))
    laws = _laws_around(seed, uids[0], round_index, extra)
    limits = [hash_limit(p) for p in laws]
    uniforms = [response_uniform(seed, uid, round_index) for uid in uids]
    for cell, p in enumerate(laws):  # one law for every user
        assert round_bits(keys, round_index, limits, cell).tolist() == [u < p for u in uniforms], p
    # a law per user, gathered by cell, with law 1 and law 0 among them
    for shift in range(len(laws)):
        cells = (np.arange(len(uids)) + shift) % len(laws)
        expected = [u < laws[c] for u, c in zip(uniforms, cells.tolist())]
        assert round_bits(keys, round_index, limits, cells).tolist() == expected


def _unxorshift(z: int, s: int) -> int:
    """The inverse of ``z ^ (z >> s)`` on 64-bit words."""
    x = z
    for _ in range(64 // s + 1):
        x = z ^ (x >> s)
    return x


def _unmix64(h: int) -> int:
    """The inverse of the splitmix64 finalizer."""
    h = _unxorshift(h, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    h = _unxorshift(h, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return _unxorshift(h, 30)


@pytest.mark.parametrize("round_index", [0, 2**30, 2**64 - 1])
@pytest.mark.parametrize("top", [2**64 - 1, 2**64 - 2**11, 2**11 - 1, 0])
def test_extreme_hashes_keep_the_law_zero_and_one_bits(round_index, top):
    # the user whose response hash is ``top``: all ones is the one hash that
    # law 1's clamped limit 2**64 - 1 does not exceed
    seed = 3
    base = _mix64((seed ^ 0x9E3779B97F4A7C15) & 2**64 - 1)
    uid = _unmix64(_unmix64(top) ^ round_index) ^ base
    assert _mix64(_mix64(_mix64(seed ^ 0x9E3779B97F4A7C15) ^ uid) ^ round_index) == top
    keys = premixed_keys(seed, np.array([uid, 7], dtype=np.uint64))
    assert int(round_hash(keys, round_index)[0]) == top
    draw = top >> 11
    assert response_uniform(seed, uid, round_index) == draw * 2.0**-53
    for p in (0.0, 5e-324, draw * 2.0**-53, math.nextafter(draw * 2.0**-53, 1.0), 1.0 - 2.0**-53, 1.0):
        expected = response_uniform(seed, uid, round_index) < p
        if p < 1.0:
            assert (top < hash_limit(p)) == expected, p
        assert round_bits(keys, round_index, [hash_limit(p)], 0)[0] == expected, p
        assert round_bits(keys, round_index, [hash_limit(0.5), hash_limit(p)], np.array([1, 0]))[0] == expected, p
    assert hash_limit(1.0) == 2**64 - 1 and hash_limit(0.0) == 0
    assert hash_limit(1.0 - 2.0**-53) == (2**53 - 1) << 11


# raw draws of numpy's Generator as the package calls it, at seed 3 and the
# benchmark's shapes (pc k=3, l=16; hl B=4, L=9)
_PC_ALICE = [7, 10, 1, 13, 7, 15, 13, 15, 13, 7, 15, 3, 15, 7, 9, 13]
_PC_BOB = [14, 12, 11, 9, 6, 4, 8, 13, 10, 6, 16, 9, 2, 10, 7, 15]
_HL_DRAWS = [1, 2, 3369945365926075229]
_POPULATION_COINS = ["0x1.6735e229c6f22p-2", "0x1.974af72bc5da2p-1", "0x1.ffdc96b124360p-1", "0x1.0f1656066a64dp-1"]
_NUMPY_CHANGED = (
    "numpy {} changed the output of Generator.{}: instances, populations, every golden file "
    "and every digest pin move with it, though this package did not change"
)


def test_numpy_generator_draws_are_pinned():
    """A canary: a numpy release that changes ``Generator.integers`` or
    ``Generator.random`` changes every instance and population. Each call
    below is the one the package makes, on the raw generator."""
    pc = np.random.default_rng(derive_key(3, "pc-instance"))
    drawn = [pc.integers(1, 16 + 1, size=16).tolist(), pc.integers(1, 16 + 1, size=16).tolist()]
    assert drawn == [_PC_ALICE, _PC_BOB], _NUMPY_CHANGED.format(np.__version__, "integers")
    hl = np.random.default_rng(derive_key(3, "hl-instance"))
    drawn = [int(hl.integers(4)), int(hl.integers(4)), int(hl.integers(1 << 63))]
    assert drawn == _HL_DRAWS, _NUMPY_CHANGED.format(np.__version__, "integers")
    coins = np.random.default_rng(derive_key(3, "population")).random(4)
    assert [coin.hex() for coin in coins.tolist()] == _POPULATION_COINS, _NUMPY_CHANGED.format(np.__version__, "random")


def test_the_package_makes_the_pinned_calls():
    from ldpsim.engine import sample_population
    from ldpsim.problems import gen_hl_instance, gen_pc_instance

    pc = gen_pc_instance(3, 16, seed=3)
    assert [list(pc.alice_ptrs), list(pc.bob_ptrs)] == [_PC_ALICE, _PC_BOB]
    hl = gen_hl_instance(4, 9, seed=3)
    assert [hl.alice_layer, hl.bob_layer, hl.label_seed] == [2 * _HL_DRAWS[0], 1 + 2 * _HL_DRAWS[1], _HL_DRAWS[2]]
    sides = sample_population(4, "A", "B", seed=3).side_codes
    assert sides.tolist() == [int(float.fromhex(coin) >= 0.5) for coin in _POPULATION_COINS]
