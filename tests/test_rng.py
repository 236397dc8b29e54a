"""Counter-based RNG: determinism, stream independence, and direction sampling."""

import numpy as np
import pytest

from poisskern import _rng


def test_stream_keys_deterministic_and_distinct():
    keys = _rng.stream_keys(42, np.arange(1000))
    again = _rng.stream_keys(42, np.arange(1000))
    assert np.array_equal(keys, again)
    assert len(np.unique(keys)) == 1000
    other_seed = _rng.stream_keys(43, np.arange(1000))
    assert not np.any(keys == other_seed)


def test_uniform_is_pure_function_of_key_and_index():
    keys = _rng.stream_keys(7, np.arange(64))
    u1 = _rng.uniform(keys, 5)
    u2 = _rng.uniform(keys, 5)
    assert np.array_equal(u1, u2)
    # single-stream slice agrees with the batched call
    single = _rng.uniform(keys[13:14], 5)
    assert u1[13] == single[0]


def test_uniform_range_and_coverage():
    keys = _rng.stream_keys(123, np.arange(200))
    draws = np.concatenate([_rng.uniform(keys, i) for i in range(50)])
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)
    # crude uniformity: decile occupancies within 3 sigma of expectation
    counts, _ = np.histogram(draws, bins=10, range=(0.0, 1.0))
    n = draws.size
    sigma = np.sqrt(n * 0.1 * 0.9)
    assert np.all(np.abs(counts - n * 0.1) < 4 * sigma)


def test_consecutive_draws_uncorrelated():
    keys = _rng.stream_keys(5, np.arange(5000))
    a = _rng.uniform(keys, 0)
    b = _rng.uniform(keys, 1)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


@pytest.mark.parametrize("dim,expected", [(2, 1), (3, 2), (4, 4), (5, 6), (7, 8)])
def test_draws_per_step(dim, expected):
    assert _rng.draws_per_step(dim) == expected


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_sphere_directions_unit_norm_and_deterministic(dim):
    keys = _rng.stream_keys(99, np.arange(512))
    d1 = _rng.sphere_directions(keys, 0, dim)
    d2 = _rng.sphere_directions(keys, 0, dim)
    assert np.array_equal(d1, d2)
    assert d1.shape == (512, dim)
    norms = np.linalg.norm(d1, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sphere_directions_mean_near_zero(dim):
    keys = _rng.stream_keys(31, np.arange(20000))
    dirs = _rng.sphere_directions(keys, 3, dim)
    # component means of a uniform sphere direction are 0 with sd 1/sqrt(n d)
    assert np.all(np.abs(dirs.mean(axis=0)) < 4.0 / np.sqrt(20000 * dim) * np.sqrt(dim))


def test_sphere_directions_distinct_draw_indices():
    keys = _rng.stream_keys(1, np.arange(100))
    a = _rng.sphere_directions(keys, 0, 2)
    b = _rng.sphere_directions(keys, 1, 2)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_sphere_directions_take_one_draw_index_per_row(dim):
    # Rows at different points of their streams equal the same streams drawn
    # one at a time, bit for bit.
    keys = _rng.stream_keys(17, np.arange(300))
    index = (np.arange(300) % 11) * _rng.draws_per_step(dim)
    batch = _rng.sphere_directions(keys, index, dim)
    rows = [_rng.sphere_directions(keys[i : i + 1], int(index[i]), dim) for i in range(300)]
    assert np.array_equal(batch.view(np.int64), np.concatenate(rows).view(np.int64))
    assert np.array_equal(_rng.uniform(keys, index), np.concatenate(
        [_rng.uniform(keys[i : i + 1], int(index[i])) for i in range(300)]))


def test_plane_directions_match_the_exact_angle():
    # Each 2-D direction is (cos, sin) of theta = 2 pi m / 2**53, where the
    # draw's uniform is m / 2**53; compare against 40-digit arithmetic on theta.
    mpmath = pytest.importorskip("mpmath")
    keys = _rng.stream_keys(2024, np.arange(2500))
    m = (_rng.uniform(keys, 3) * 2.0**53).astype(np.int64)
    dirs = _rng.sphere_directions(keys, 3, 2)
    with mpmath.workdps(40):
        scale = 2 * mpmath.pi / mpmath.mpf(2) ** 53
        error = max(
            max(abs(mpmath.cos(int(k) * scale) - float(c)), abs(mpmath.sin(int(k) * scale) - float(s)))
            for k, (c, s) in zip(m, dirs)
        )
    assert error <= 4 * 2.0**-53
    assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 4.5e-16


def test_angle_table_is_read_only_and_built_once(monkeypatch):
    table = _rng._COS_SIN
    assert table.shape == (2, 4096) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # quadrant angles are exact, and the octant and quadrant symmetries hold
    # bit for bit (pi/4 itself is its own mirror, with libm's cos and sin there)
    i = np.r_[0:512, 513:1025]
    assert np.array_equal(table[:, [0, 1024, 2048, 3072]], [[1, 0, -1, 0], [0, 1, 0, -1]])
    assert np.array_equal(table[0, i], table[1, 1024 - i])
    assert np.array_equal(table[0, 1024:], -table[1, :3072])
    assert np.array_equal(table[1, 1024:], table[0, :3072])

    def rebuilt():
        raise AssertionError("the table is built at import only")

    monkeypatch.setattr(_rng, "_cos_sin_table", rebuilt)
    keys = _rng.stream_keys(1, np.arange(8))
    for dim in (2, 3, 4):
        _rng.sphere_directions(keys, 0, dim)
    assert _rng._COS_SIN is table


def test_cos_sin_equals_its_expression_form_bit_for_bit():
    # _cos_sin evaluates its series and rotation in reused buffers; every bit
    # must equal the expressions written out, one fresh array per operation.
    def written_out(m):
        i = (m >> np.uint64(41)).astype(np.intp)
        delta = (m & np.uint64((1 << 41) - 1)).astype(np.float64)
        delta *= _rng._REMAINDER_ANGLE
        d2 = delta * delta
        sin_d = delta * (1.0 - d2 * (1.0 / 6.0 - d2 * (1.0 / 120.0)))
        vers_d = d2 * (0.5 - d2 * (1.0 / 24.0))
        c = _rng._COS_SIN[0].take(i)
        s = _rng._COS_SIN[1].take(i)
        return c - (c * vers_d + s * sin_d), s + (c * sin_d - s * vers_d)

    top = (1 << 53) - 1
    edges = [k << 41 for k in range(4096)]  # each table angle, and the last remainder below it
    special = np.array([0, top] + edges + [e - 1 for e in edges[1:]], dtype=np.uint64)
    drawn = _rng._bits(_rng.stream_keys(19, np.arange(100_000)), 0)
    for m in (special, drawn):
        got, want = _rng._cos_sin(m), written_out(m)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_sphere_directions_equal_a_row_major_reference_bit_for_bit(dim):
    # The directions fill a coordinate-major buffer; every bit must equal the
    # same formulas stacked into a C-order (n, dim) array, with numpy's own
    # axis-1 norm of that array (pairwise from 8 columns on).
    keys = _rng.stream_keys(23, np.arange(4000))
    for base in (5 * _rng.draws_per_step(dim), (np.arange(4000) % 9) * _rng.draws_per_step(dim)):
        def angle(k):
            return _rng._cos_sin(_rng._bits(keys, base + k))

        if dim == 2:
            want = np.stack(angle(0), axis=1)
        elif dim == 3:
            c = 2.0 * _rng.uniform(keys, base) - 1.0
            cos_phi, sin_phi = angle(1)
            s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
            want = np.stack([s * cos_phi, s * sin_phi, c], axis=1)
        else:
            columns = []
            for j in range((dim + 1) // 2):
                r = np.sqrt(-2.0 * np.log1p(-_rng.uniform(keys, base + 2 * j)))
                cos_w, sin_w = angle(2 * j + 1)
                columns += [r * cos_w, r * sin_w]
            v = np.stack(columns[:dim], axis=1)
            want = v / np.linalg.norm(v, axis=1)[:, None]
        got = _rng.sphere_directions(keys, base, dim)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
