"""Book-state dynamics: decay laws, order application, replay bookkeeping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobexec import (
    BlockShape,
    InvalidParam,
    MarketParams,
    PowerLawShape,
    Resilience,
    replay,
    trajectory_to_csv,
)
from reference_models import (
    BookState,
    SimplifiedState,
    apply_order,
    apply_order_book,
    decay,
    decay_book,
    replay_book,
)

Q = 5000.0
SHAPES = [BlockShape(Q), PowerLawShape(Q, 1.0), PowerLawShape(Q, -1.5)]


@pytest.mark.parametrize("shape", SHAPES, ids=[s.name for s in SHAPES])
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
def test_state_stays_consistent(shape, mode):
    # volume and offset must always describe the same book
    s = SimplifiedState.initial()
    s = apply_order(s, shape, 800.0)
    assert s.offset == pytest.approx(shape.offset(s.volume), rel=1e-12)
    s = decay(s, shape, mode, rho=20.0, s=0.05)
    assert s.offset == pytest.approx(shape.offset(s.volume), rel=1e-12)
    s = apply_order(s, shape, -300.0)
    assert s.offset == pytest.approx(shape.offset(s.volume), rel=1e-12)


@pytest.mark.parametrize("shape", SHAPES, ids=[s.name for s in SHAPES])
@pytest.mark.parametrize("mode", [Resilience.VOLUME, Resilience.SPREAD])
@given(
    x=st.floats(min_value=1.0, max_value=5000.0),
    s1=st.floats(min_value=0.0, max_value=0.4),
    s2=st.floats(min_value=0.0, max_value=0.4),
)
@settings(max_examples=40, deadline=None)
def test_decay_composes(shape, mode, x, s1, s2):
    # decaying s1 then s2 equals decaying s1+s2 in one step
    st0 = apply_order(SimplifiedState.initial(), shape, x)
    one = decay(decay(st0, shape, mode, 20.0, s1), shape, mode, 20.0, s2)
    two = decay(st0, shape, mode, 20.0, s1 + s2)
    assert one.volume == pytest.approx(two.volume, rel=1e-10, abs=1e-12)
    assert one.offset == pytest.approx(two.offset, rel=1e-10, abs=1e-12)


def test_decay_laws_differ_between_modes():
    # volume mode scales E by exp(-rho s); spread mode scales D instead
    sh = PowerLawShape(Q, 1.0)
    st0 = apply_order(SimplifiedState.initial(), sh, 2000.0)
    a = math.exp(-20.0 * 0.1)
    v = decay(st0, sh, Resilience.VOLUME, 20.0, 0.1)
    d = decay(st0, sh, Resilience.SPREAD, 20.0, 0.1)
    assert v.volume == pytest.approx(a * st0.volume, rel=1e-13)
    assert d.offset == pytest.approx(a * st0.offset, rel=1e-13)
    # on a non-block shape the two laws land at different states
    assert abs(v.volume - d.volume) > 1.0


def test_block_modes_coincide():
    sh = BlockShape(Q)
    st0 = apply_order(SimplifiedState.initial(), sh, 2000.0)
    v = decay(st0, sh, Resilience.VOLUME, 20.0, 0.1)
    d = decay(st0, sh, Resilience.SPREAD, 20.0, 0.1)
    assert v.volume == pytest.approx(d.volume, rel=1e-14)


def test_market_params_validation():
    with pytest.raises(InvalidParam):
        MarketParams(x0=-1.0, horizon=1.0, steps=10, rho=20.0)
    with pytest.raises(InvalidParam):
        MarketParams(x0=1.0, horizon=0.0, steps=10, rho=20.0)
    with pytest.raises(InvalidParam):
        MarketParams(x0=1.0, horizon=1.0, steps=0, rho=20.0)
    with pytest.raises(InvalidParam):
        MarketParams(x0=1.0, horizon=1.0, steps=10, rho=0.0)
    p = MarketParams(x0=1.0, horizon=2.0, steps=4, rho=10.0)
    assert p.tau == 0.5
    assert p.decay == pytest.approx(math.exp(-5.0))
    # the node times, as the trajectory carries them
    assert [pt.t for pt in replay(p, BlockShape(1.0), [0.2] * 5)] == [0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("x0,horizon,rho", [
    (math.inf, 1.0, 20.0), (math.nan, 1.0, 20.0), (1e5, math.inf, 20.0), (1e5, math.nan, 20.0),
    (1e5, 1.0, math.inf), (1e5, 1.0, math.nan),
], ids=["inf-1.0", "nan-1.0", "100000.0-inf", "100000.0-nan", "rho inf", "rho nan"])
def test_a_size_or_horizon_that_is_not_finite_is_an_invalid_parameter(x0, horizon, rho):
    # a resilience rate of inf would be full recovery; like x0 and the
    # horizon it must be a finite number
    with pytest.raises(InvalidParam, match="must be finite"):
        MarketParams(x0, horizon, 10, rho)


@pytest.mark.parametrize("steps", [2.5, 0.5, "10", "abc", None, math.nan, math.inf], ids=repr)
def test_a_step_count_that_is_not_a_whole_number_is_an_invalid_parameter(steps):
    with pytest.raises(InvalidParam, match="steps must be an integer"):
        MarketParams(1e5, 1.0, steps, 20.0)


@pytest.mark.parametrize("mode", [3, 0, 1.5, "1", None], ids=repr)
def test_an_unknown_resilience_mode_is_an_invalid_parameter(mode):
    with pytest.raises(InvalidParam, match="resilience mode must be 1"):
        MarketParams(1e5, 1.0, 10, 20.0, mode=mode)


def test_replay_bookkeeping(fig3_params, block):
    trades = [10000.0] * 10 + [0.0]
    traj = replay(fig3_params, block, trades)
    assert len(traj) == 11
    a = fig3_params.decay
    for i, pt in enumerate(traj):
        assert pt.n == i
        assert pt.t == pytest.approx(i * fig3_params.tau)
        assert pt.volume_post - pt.volume_pre == pytest.approx(trades[i], rel=1e-12)
    # between nodes the volume decays by a
    for prev, nxt in zip(traj, traj[1:]):
        assert nxt.volume_pre == pytest.approx(a * prev.volume_post, rel=1e-12)


def test_replay_rejects_wrong_length(fig3_params, block):
    with pytest.raises(InvalidParam):
        replay(fig3_params, block, [1.0] * 10)


def test_replay_book_buys_match_simplified(fig3_params, block):
    trades = [5000.0] * 11
    simp = replay(fig3_params, block, trades)
    book = replay_book(fig3_params, block, trades)
    for pt, (n, pre, post) in zip(simp, book):
        assert post.ask.volume == pytest.approx(pt.volume_post, rel=1e-12)
        assert pre.ask.volume == pytest.approx(pt.volume_pre, rel=1e-12)
        assert post.bid.volume == 0.0


def test_replay_book_sells_hit_the_bid(fig3_params, block):
    trades = [5000.0, -2000.0] + [4000.0] * 9
    book = replay_book(fig3_params, block, trades)
    # the bid side lives on the negative axis: a sell drives its volume down
    n1_pre, n1_post = book[1][1], book[1][2]
    assert n1_post.bid.volume == pytest.approx(n1_pre.bid.volume - 2000.0)
    assert n1_post.bid.offset < 0.0
    assert n1_post.ask.volume == n1_pre.ask.volume  # ask untouched by a sell


def test_book_decay_acts_on_both_sides():
    sh = BlockShape(Q)
    b0 = apply_order_book(apply_order_book(BookState.initial(), sh, 1000.0), sh, -400.0)
    b1 = decay_book(b0, sh, Resilience.VOLUME, 20.0, 0.1)
    a = math.exp(-2.0)
    assert b1.ask.volume == pytest.approx(a * b0.ask.volume, rel=1e-13)
    assert b1.bid.volume == pytest.approx(a * b0.bid.volume, rel=1e-13)


def test_trajectory_csv_round_trip(tmp_path, fig3_params, block):
    traj = replay(fig3_params, block, [9090.0] * 11)
    out = tmp_path / "traj.csv"
    trajectory_to_csv(traj, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,t,E_pre,D_pre,E_post,D_post"
    assert len(lines) == 12
    fields = lines[3].split(",")
    assert int(fields[0]) == 2
    # %.17g survives a float round trip
    assert float(fields[4]) == traj[2].volume_post


def test_the_reference_models_live_in_the_tests():
    # the per-step and two-sided books and the G-form costs are test
    # references; lobexec exports none of them
    import lobexec
    from lobexec import costs, dynamics

    moved = ("SimplifiedState", "apply_order", "decay", "BookState", "apply_order_book",
             "decay_book", "replay_book", "impact_cost_gform", "order_cost")
    for name in moved:
        assert name not in lobexec.__all__
        assert not hasattr(lobexec, name), name
        assert not hasattr(dynamics, name) and not hasattr(costs, name), name
    for name in ("replay", "TrajectoryPoint", "trajectory_to_csv"):
        assert hasattr(dynamics, name)
