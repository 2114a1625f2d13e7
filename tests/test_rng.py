"""Counter-based random streams: reproducibility and independence."""

import numpy as np
import pytest

from dmvi.errors import ContractError
from dmvi.rng import RngStream
from references import philox_draw


def test_same_seed_same_draws():
    a = RngStream(123)
    b = RngStream(123)
    assert np.array_equal(a.normal((10,)), b.normal((10,)))
    assert np.array_equal(a.uniform((3, 3)), b.uniform((3, 3)))
    assert np.array_equal(a.integers(0, 50, (20,)), b.integers(0, 50, (20,)))
    assert np.array_equal(a.permutation(17), b.permutation(17))


def test_draws_keyed_by_counter_not_call_order():
    # Replaying from the same (seed, counter) reproduces a draw even after
    # other draws happened in between.
    a = RngStream(9)
    first = a.normal((4,))
    a.normal((100,))
    b = RngStream(9)
    assert np.array_equal(b.normal((4,)), first)


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(0).normal((8,)),
                              RngStream(1).normal((8,)))


def test_child_streams_are_stable_and_distinct():
    root = RngStream(5)
    c1 = root.child("init")
    c2 = root.child("loop")
    again = RngStream(5).child("init")
    assert np.array_equal(c1.normal((6,)), again.normal((6,)))
    assert not np.array_equal(RngStream(5).child("init").normal((6,)),
                              c2.normal((6,)))


def test_child_independent_of_parent_position():
    # Deriving a child after the parent has drawn must not change the child.
    r1 = RngStream(2)
    r1.normal((50,))
    late = r1.child("sub")
    early = RngStream(2).child("sub")
    assert np.array_equal(late.normal((5,)), early.normal((5,)))


def test_uniform_range_and_normal_moments():
    r = RngStream(77)
    u = r.uniform((100000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    z = r.normal((100000,))
    assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
    assert abs(z.std() - 1.0) < 0.02


def test_integers_bounds():
    v = RngStream(3).integers(2, 9, (1000,))
    assert v.min() >= 2 and v.max() < 9


# Every kind of draw, as RngStream makes it and as a generator makes it.
# A one-element integers draw in [0, 7) takes half of a 64-bit output and
# caches the other half (has_uint32), which the next draw must not see.
_DRAWS = [
    (lambda r: r.integers(0, 7, (1,)), lambda g: g.integers(0, 7, size=(1,))),
    (lambda r: r.normal((3, 5)), lambda g: g.standard_normal((3, 5))),
    (lambda r: r.integers(0, 7, (1,)), lambda g: g.integers(0, 7, size=(1,))),
    (lambda r: r.uniform((7,)), lambda g: g.random((7,))),
    (lambda r: r.integers(-5, 2**40, (4,)),
     lambda g: g.integers(-5, 2**40, size=(4,))),
    (lambda r: r.permutation(9), lambda g: g.permutation(9)),
]


def test_a_cached_uint32_is_what_the_draws_exercise():
    g = philox_draw(11, 0)
    _DRAWS[0][1](g)
    assert g.bit_generator.state["has_uint32"] == 1


def test_each_draw_is_a_fresh_philox_at_its_slot():
    streams = [RngStream(11), RngStream(2**64 - 1), RngStream(11).child("c")]
    for _ in range(3):
        for draw, reference in _DRAWS:
            for r in streams:       # interleaved: each stream in turn
                counter = r.counter
                got = draw(r)
                assert r.counter == counter + 1
                assert np.array_equal(got, reference(philox_draw(r.seed,
                                                                 counter)))


def test_child_draws_ignore_the_parents_draws():
    parent = RngStream(4)
    child = parent.child("c")
    mixed = []
    for draw, _ in _DRAWS:
        draw(parent)
        mixed.append(draw(child))
    alone = RngStream(4).child("c")
    for (draw, _), got in zip(_DRAWS, mixed):
        assert np.array_equal(got, draw(alone))


def test_draws_read_no_os_entropy(monkeypatch):
    # Philox(key=...) builds and drops a SeedSequence() from OS entropy;
    # a stream keys a generator built from a fixed SeedSequence instead.
    import numpy.random.bit_generator as bit_generator

    def refuse(bits):
        raise AssertionError("OS entropy read")

    want = philox_draw(11, 0).standard_normal((3,))
    monkeypatch.setattr(bit_generator, "randbits", refuse)
    assert np.array_equal(RngStream(11).normal((3,)), want)


_PAST = 2**63                       # one more than numpy's largest index


@pytest.mark.parametrize("draw", [
    lambda r, n: r.normal((n,)), lambda r, n: r.uniform((3, n)),
    lambda r, n: r.integers(0, 5, (n,)),
    lambda r, n: r.normal((2**40, 2**40)),      # each extent fits, not both
], ids=["normal", "uniform", "integers", "product"])
def test_a_shape_past_the_index_range_is_a_config_error(draw):
    with pytest.raises(ContractError, match="past numpy's index range"):
        draw(RngStream(0), _PAST)


def test_other_value_errors_of_a_draw_stay_what_they_are():
    with pytest.raises(ValueError) as e:
        RngStream(0).integers(5, 1, (3,))           # low above high
    assert type(e.value) is ValueError
