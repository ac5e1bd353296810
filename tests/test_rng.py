import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpsim._rng import (
    derive_key,
    response_limit,
    response_uniform,
    response_uniforms,
    round_draws,
    substream,
    user_keys,
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


def test_scalar_and_vector_response_draws_agree():
    users = np.arange(1000, dtype=np.int64)
    vec = response_uniforms(99, users, round_index=17)
    scalars = [response_uniform(99, int(u), 17) for u in users]
    assert np.allclose(vec, scalars, atol=0, rtol=0)
    assert ((vec >= 0) & (vec < 1)).all()


def test_response_draws_vary_by_round_and_user():
    users = np.arange(200, dtype=np.int64)
    r0 = response_uniforms(5, users, 0)
    r1 = response_uniforms(5, users, 1)
    assert not np.array_equal(r0, r1)
    assert len(np.unique(r0)) == len(r0)


def test_response_draws_roughly_uniform():
    users = np.arange(200_000, dtype=np.int64)
    draws = response_uniforms(1234, users, 3)
    assert abs(draws.mean() - 0.5) < 0.005
    assert abs((draws < 0.25).mean() - 0.25) < 0.005


def test_keyed_draws_agree_with_the_scalar_draw():
    users = np.array([0, 1, 2, 17, 10_378, 2**31, 2**40 + 3, 2**62], dtype=np.int64)
    for seed in (0, 99, 2**64 - 1):
        keys = user_keys(seed, users)
        for round_index in (0, 1, 32, 10**6):
            draws = round_draws(keys, round_index)
            assert draws.dtype == np.uint64 and int(draws.max()) < 2**53
            scalars = [response_uniform(seed, int(u), round_index) for u in users]
            assert (draws.astype(np.float64) * 2.0**-53).tolist() == scalars
            assert response_uniforms(seed, users, round_index).tolist() == scalars
    # a user's key does not depend on which other users are hashed with it
    assert np.array_equal(user_keys(5, users)[3:5], user_keys(5, users[3:5]))


def _threshold_laws(draws):
    grid = (draws[:40].astype(np.float64) * 2.0**-53).tolist()  # exact k * 2**-53 points, drawn ones
    grid += [2.0**-53, 0.5, 1.0 - 2.0**-53, 5e-324]
    laws = [0.0, 1.0] + grid + [rr_param(v, e) for v in (0, 1) for e in (0.05, 0.5, 1.0, math.log(3.0), 2.0, 30.0)]
    return sorted({q for p in laws for q in (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0))})


def test_integer_threshold_is_the_float_comparison():
    users = np.arange(4000, dtype=np.int64)
    draws = round_draws(user_keys(7, users), 3)
    uniforms = response_uniforms(7, users, 3)
    laws = _threshold_laws(draws)
    assert 0.0 in laws and 1.0 in laws and len(laws) > 150
    for p in laws:
        limit = response_limit(p)
        assert type(limit) is int and 0 <= limit <= 2**53
        assert np.array_equal(draws < np.uint64(limit), uniforms < p), p
    assert response_limit(0.0) == 0 and response_limit(1.0) == 2**53
    # at a drawn value the draw itself is not below the law, the next float up is
    k = int(draws[0])
    assert response_limit(k * 2.0**-53) == k and response_limit(math.nextafter(k * 2.0**-53, 1.0)) == k + 1


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0), k=st.integers(0, 2**53 - 1))
def test_integer_threshold_matches_any_law(p, k):
    assert (k < response_limit(p)) == (k * 2.0**-53 < p)
    q = k * 2.0**-53
    for law in (q, math.nextafter(q, 0.0), math.nextafter(q, 1.0)):
        assert (k < response_limit(law)) == (q < law)
