import copy
import math
import pickle

import numpy as np
import pytest

from dictsel import assemble, dct2_basis, haar2_basis, ls_solve, utility, utility_gradient
from dictsel.errors import DimensionMismatch
from dictsel.online import (
    METHODS,
    UNIFORM_ROWS,
    HedgeBank,
    HedgeExpert,
    alpha_regret,
    expert_hindsight_regrets,
    hedge_update,
    online_round,
    online_state,
)

from conftest import random_unit_atoms
from oracles import f_value, hedge_update_reference, online_round_reference


def make_bank(n=8, horizon=100, seed=0):
    """A bank of one expert."""
    return HedgeBank.start(n, [np.random.default_rng(seed)], horizon)


def probabilities(bank):
    """The distribution of the bank's only expert."""
    return HedgeExpert(bank, 0).probabilities


def test_hedge_uniform_under_zero_gains():
    bank = make_bank()
    for _ in range(5):
        hedge_update(bank, np.zeros((1, 8)), 1.0)
    assert np.allclose(probabilities(bank), 1.0 / 8)
    assert abs(probabilities(bank).sum() - 1.0) <= 1e-12


def test_hedge_concentrates_on_dominant_atom():
    bank = make_bank(n=64, horizon=200, seed=1)
    gains = np.zeros((1, 64))
    gains[0, 17] = 1.0
    for _ in range(200):
        hedge_update(bank, gains, 1.0)
    p = probabilities(bank)
    assert p[17] > 0.99
    # Closed form: weight ratio exp(200 * eta) against 63 flat atoms.
    expected = 1.0 / (1.0 + 63 * np.exp(-200 * bank.eta))
    assert p[17] == pytest.approx(expected, rel=1e-9)


def test_hedge_zero_learning_rate_stays_uniform():
    bank = make_bank(seed=2)
    bank.eta = 0.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        hedge_update(bank, rng.uniform(0, 1, size=(1, 8)), 1.0)
    assert np.allclose(probabilities(bank), 1.0 / 8)


def test_hedge_rejects_negative_gains():
    bank = make_bank()
    with pytest.raises(ValueError):
        hedge_update(bank, np.array([[0.0, -1.0] + [0.0] * 6]), 1.0)


def test_hedge_doubling_trick_runs():
    # Without a horizon the bank restarts at updates 2, 3, 5, 9 and 17 (after
    # 1, 2, 4, 8 and 16 rounds) and at no other: the e-th restart drops the
    # log-weights fed before it and sets eta = sqrt(8 ln n / 2**e).
    n = 8
    bank = HedgeBank.start(n, [np.random.default_rng(4), np.random.default_rng(5)], horizon=None)
    restarts = {2: 1, 3: 2, 5: 3, 9: 4, 17: 5}
    rng = np.random.default_rng(6)
    eta = math.sqrt(8 * math.log(n))
    expected = np.zeros((2, n))
    etas = [bank.eta]
    for update in range(1, 21):
        gains = rng.random((2, n))
        if update in restarts:
            eta = math.sqrt(8 * math.log(n) / 2 ** restarts[update])
            expected = np.zeros((2, n))
        expected += eta * gains / 1.0
        hedge_update(bank, gains, 1.0)
        assert bank.eta == eta
        assert np.array_equal(bank.log_weights, expected)
        etas.append(bank.eta)
    assert (bank.rounds, bank.epoch) == (20, 5)
    assert etas[0] > etas[-1] > 0


@pytest.mark.parametrize("horizon", [1000, None])
def test_hedge_draw_matches_generator_choice(horizon):
    # The bank draws its uniforms UNIFORM_ROWS rounds ahead, so a clone of
    # its generator plays in lockstep instead: integers(n) as the bank's
    # start, then one choice(n, p) per round.  1000 rounds take the table
    # through 15 refills.
    n = 128
    bank = make_bank(n, horizon, seed=9)
    clone = np.random.default_rng(9)
    assert bank.choices == [clone.integers(n)]
    gains_rng = np.random.default_rng(10)
    profile = gains_rng.exponential(size=n)
    bound = 1.0
    for _ in range(1000):
        gains = profile * gains_rng.random(n)
        bound = max(bound, float(gains.max()))
        (choice,) = hedge_update(bank, gains[None], bound)
        assert choice == clone.choice(n, p=probabilities(bank))
    assert probabilities(bank).max() > 0.5  # the draws were not all uniform


@pytest.mark.parametrize("horizon", [40, None])
@pytest.mark.parametrize("n", [37, 128])
def test_hedge_update_matches_hedge_step_bitwise(horizon, n):
    # One update of a k-row bank against k one-row banks (one hedge step
    # each); 40 rounds take the doubling trick through five restarts.
    k = 5
    batched = HedgeBank.start(n, [np.random.default_rng([20, i]) for i in range(k)], horizon)
    single = [make_bank(n, horizon, seed=[20, i]) for i in range(k)]
    assert batched.choices == [bank.choices[0] for bank in single]
    gains_rng = np.random.default_rng(21)
    bound = 1.0
    for _ in range(40):
        gains = gains_rng.exponential(size=(k, n)) * (gains_rng.random((k, 1)) < 0.9)
        bound = max(bound, float(gains.max()))
        draws = hedge_update(batched, gains, bound)
        assert draws == [hedge_update(bank, g[None], bound)[0] for bank, g in zip(single, gains)]
        assert np.array_equal(batched.log_weights, np.vstack([bank.log_weights for bank in single]))
        assert np.array_equal(batched.cumulative_gains, np.vstack([bank.cumulative_gains for bank in single]))
        for bank in single:
            assert (batched.eta, batched.rounds, batched.epoch) == (bank.eta, bank.rounds, bank.epoch)


def test_vector_draw_is_searchsorted_right_per_row():
    # Log-weights far enough apart that weights underflow to 0 and leave
    # flat runs in the cdf; each u is drawn, 0, just below 1, or exactly a
    # cdf value, and written into the row of the bank's uniform table that
    # the update reads (one update first fills the table, and the 60 trials
    # fit in it).  Zero gains leave the log-weights as set.
    rng = np.random.default_rng(25)
    k, n = 6, 40
    bank = HedgeBank.start(n, [np.random.default_rng(i) for i in range(k)], 100)
    hedge_update(bank, np.zeros((k, n)), 1.0)
    spread = np.array([1.0, 30.0, 300.0, 800.0, 1.0, 0.0])[:, None]
    flat_rows = 0
    for trial in range(60):
        bank.log_weights[:] = rng.standard_normal((k, n)) * spread
        bank.log_weights[4, 10:30] = -1e4
        w = np.exp(bank.log_weights - bank.log_weights.max(axis=1, keepdims=True))
        cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        flat_rows += int((np.diff(cdf, axis=1) == 0.0).any(axis=1).sum())
        # A uniform is below 1, and the cdf ends in 1: an entry of 1 is
        # replaced by the row's largest entry below 1.
        on_cdf = cdf[np.arange(k), rng.integers(0, n, k)]
        on_cdf = np.where(on_cdf < 1.0, on_cdf, np.where(cdf < 1.0, cdf, 0.0).max(axis=1))
        u = [rng.random(k), on_cdf, np.zeros(k), np.full(k, np.nextafter(1.0, 0.0))][trial % 4]
        assert bank.next_row == trial + 1 < UNIFORM_ROWS
        bank.uniforms[bank.next_row] = u
        draws = hedge_update(bank, np.zeros((k, n)), 1.0)
        assert draws == [int(row.searchsorted(x, side="right")) for row, x in zip(cdf, u)]
        assert draws == bank.choices
    assert flat_rows >= 3 * 60


def test_rejected_hedge_update_changes_nothing():
    # After one round without a horizon the next update restarts the bank;
    # gains of another shape (one row, which would broadcast to every
    # expert, or one row too few) and bad gains are found before that or
    # any other write.  The uniform table is then mid-way, and keeps its
    # rows and its next row; a fresh bank's used-up table is not refilled,
    # so its generators keep their states.
    rejected = [(np.arange(8.0), "shape"), (np.ones((2, 8)), "shape"), (np.full((3, 8), np.inf), "finite")]
    for played in (1, 0):
        bank = HedgeBank.start(8, [np.random.default_rng(i) for i in range(3)], None)
        for _ in range(played):
            hedge_update(bank, np.ones((3, 8)), 1.0)
        assert bank.next_row == (1 if played else UNIFORM_ROWS)
        before = pickle.dumps(bank)
        table, states = bank.uniforms.copy(), [rng.bit_generator.state for rng in bank.rngs]
        for gains, message in rejected:
            with pytest.raises(ValueError, match=message):
                hedge_update(bank, gains, 1.0)
            assert pickle.dumps(bank) == before
            assert np.array_equal(bank.uniforms, table) and bank.next_row == (1 if played else UNIFORM_ROWS)
            assert [rng.bit_generator.state for rng in bank.rngs] == states


def gain_stream(k, n, rounds, seed):
    """``rounds`` (gains, bound) pairs for a bank of k experts over n atoms, the bound the running maximum."""
    rng = np.random.default_rng(seed)
    bound, stream = 1.0, []
    for _ in range(rounds):
        gains = rng.exponential(size=(k, n)) * (rng.random((k, 1)) < 0.9)
        bound = max(bound, float(gains.max()))
        stream.append((gains, bound))
    return stream


def assert_banks_equal(a, b):
    assert a.choices == b.choices
    assert np.array_equal(a.log_weights, b.log_weights)
    assert np.array_equal(a.cumulative_gains, b.cumulative_gains)
    assert (a.eta, a.rounds, a.epoch) == (b.eta, b.rounds, b.epoch)


@pytest.mark.parametrize("horizon", [40, None])
def test_uniform_table_matches_one_draw_per_round(horizon):
    # 200 rounds of a 5-expert bank against the update that calls random()
    # once per expert per round: the table is filled at round 0 and refilled
    # at rounds 64, 128 and 192, and without a horizon the bank restarts 8
    # times.  A deep copy taken mid-table plays the last 100 rounds alike.
    k, n = 5, 37
    bank = HedgeBank.start(n, [np.random.default_rng([30, i]) for i in range(k)], horizon)
    reference = HedgeBank.start(n, [np.random.default_rng([30, i]) for i in range(k)], horizon)
    assert_banks_equal(bank, reference)
    stream = gain_stream(k, n, 200, seed=31)
    for t, (gains, bound) in enumerate(stream):
        if t == 100:
            copied = copy.deepcopy(bank)
            assert 0 < copied.next_row < UNIFORM_ROWS
        assert hedge_update(bank, gains, bound) == hedge_update_reference(reference, gains, bound)
        assert_banks_equal(bank, reference)
    for gains, bound in stream[100:]:
        hedge_update(copied, gains, bound)
    assert_banks_equal(copied, bank)
    assert reference.epoch == (0 if horizon else 8)


class CountingGenerator:
    """Stands in for an expert's generator and counts its ``random`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self, *args):
        self.calls += 1
        return self.rng.random(*args)


@pytest.mark.parametrize("rounds", [1, 64, 65, 200])
def test_uniform_table_calls_each_generator_once_per_table(rounds):
    k, n = 3, 16
    proxies = [CountingGenerator(np.random.default_rng(i)) for i in range(k)]
    bank = HedgeBank.start(n, proxies, 50)
    for gains, bound in gain_stream(k, n, rounds, seed=33):
        hedge_update(bank, gains, bound)
    assert all(proxy.calls <= math.ceil(rounds / UNIFORM_ROWS) for proxy in proxies)


def test_first_round_uses_pure_additions():
    rng = np.random.default_rng(5)
    a = dct2_basis(3)
    state = online_state("online_replacement_omp", a, k=4, s=2, horizon=10, seed=0)
    y = rng.standard_normal(9)
    played, feedbacks = online_round(state, y, a)
    assert len(played) == 4
    # Slot 1 sees the empty support: feedback is the squared gradient at zero.
    expected = (a.T @ y) ** 2 / state.smoothness
    assert np.abs(feedbacks[0] - expected).max() <= 1e-12


def test_modular_feedback_is_singleton_utility():
    rng = np.random.default_rng(6)
    a = random_unit_atoms(rng, 8, 12)
    state = online_state("online_modular", a, k=3, s=2, horizon=10, seed=1)
    y = rng.standard_normal(8)
    _, feedbacks = online_round(state, y, a)
    expected = 0.5 * (a.T @ y) ** 2
    for fb in feedbacks:
        assert np.abs(fb - expected).max() <= 1e-12


def test_online_feedback_nonnegative_and_supports_bounded():
    rng = np.random.default_rng(7)
    a = random_unit_atoms(rng, 10, 16)
    for method in ("online_modular", "online_replacement_greedy", "online_replacement_omp"):
        state = online_state(method, a, k=5, s=2, horizon=30, seed=2)
        for _ in range(30):
            played, feedbacks = online_round(state, rng.standard_normal(10), a)
            assert all(float(fb.min()) >= 0.0 for fb in feedbacks)
            assert len(set(played)) <= 5
            support = state.ledger.supports[-1]
            assert len(support) <= 2
            assert set(support) <= set(played)
        assert state.rounds == 30
        assert len(state.ledger.player_gains) == 30


def test_oromp_feedback_matches_gradient_closed_form():
    rng = np.random.default_rng(8)
    a = random_unit_atoms(rng, 12, 20)
    state = online_state("online_replacement_omp", a, k=6, s=3, horizon=20, seed=3)
    y = rng.standard_normal(12)
    played, feedbacks = online_round(state, y, a)
    # Recompute slot by slot with independent least squares.
    support: list[int] = []
    for i, choice in enumerate(played, start=1):
        w = ls_solve(a, support, y)
        grad_sq = utility_gradient(y, w, a) ** 2
        grad_sq[support] = 0.0
        if len(support) < 3:
            expected = grad_sq / state.smoothness
        elif support:
            cheapest = state.smoothness * float(np.min(w[support] ** 2))
            expected = np.maximum(grad_sq / state.smoothness - cheapest, 0.0)
        else:
            expected = np.zeros(20)
        assert np.abs(feedbacks[i - 1] - expected).max() <= 1e-9
        if expected[choice] > 0.0 and choice not in support:
            if len(support) < 3:
                support.append(choice)
            else:
                costs = w[support] ** 2
                pos = int(np.argmin(costs))
                support = support[:pos] + support[pos + 1 :] + [choice]


def test_org_feedback_is_exact_difference():
    rng = np.random.default_rng(9)
    a = random_unit_atoms(rng, 10, 14)
    state = online_state("online_replacement_greedy", a, k=3, s=3, horizon=10, seed=4)
    y = rng.standard_normal(10)
    played, feedbacks = online_round(state, y, a)
    # Slot 1: gain of {b} over the empty support is f({b}).
    expected = np.array([utility(y, ls_solve(a, [b], y), a) for b in range(14)])
    assert np.abs(feedbacks[0] - expected).max() <= 1e-9


def test_org_swaps_at_the_best_position():
    # k = s + 1: s hand-set additions, then one swap of the last atom.  The
    # swap must land where f(Z - z_j + b) is largest, so the realized
    # utility is the exhaustive best over positions (or f(Z) if no swap pays).
    rng = np.random.default_rng(14)
    s = 3
    for _ in range(40):
        a = random_unit_atoms(rng, 6, 10)
        y = rng.standard_normal(6)
        state = online_state("online_replacement_greedy", a, k=s + 1, s=s, horizon=5, seed=7)
        played = [int(j) for j in rng.choice(10, size=s + 1, replace=False)]
        state.bank.choices = list(played)
        online_round(state, y, a)
        support, atom = played[:s], played[s]
        expected = max(
            [f_value(a, support, y)]
            + [f_value(a, support[:j] + support[j + 1 :] + [atom], y) for j in range(s)]
        )
        assert state.ledger.player_gains[-1] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("method", ["online_replacement_omp", "online_replacement_greedy"])
def test_slots_add_while_the_support_has_room(method):
    # k = s + 2 with s = 2: slot 2 repeats slot 1's atom, so the support
    # still has room at slot 3, whose atom must be added; slot 4 repeats it.
    rng = np.random.default_rng(15)
    a = random_unit_atoms(rng, 6, 10)
    y = rng.standard_normal(6)
    state = online_state(method, a, k=4, s=2, horizon=5, seed=8)
    state.bank.choices = [3, 3, 7, 7]
    _, feedbacks = online_round(state, y, a)
    assert feedbacks[2][7] > 0.0
    assert state.ledger.supports[-1] == [3, 7]
    assert state.ledger.player_gains[-1] == pytest.approx(f_value(a, [3, 7], y), rel=1e-9)


def test_player_gain_is_final_support_utility():
    rng = np.random.default_rng(10)
    a = random_unit_atoms(rng, 8, 10)
    state = online_state("online_replacement_omp", a, k=4, s=2, horizon=5, seed=5)
    y = rng.standard_normal(8)
    online_round(state, y, a)
    assert state.ledger.player_gains[0] <= 0.5 * float(y @ y) + 1e-12
    assert state.ledger.player_gains[0] >= -1e-12


def test_alpha_regret_accounting():
    from dictsel.online import OnlineLedger

    ledger = OnlineLedger(player_gains=[1.0, 2.0, 3.0])
    assert alpha_regret(ledger, offline_opt=6.0, alpha=1.0) == pytest.approx(0.0)
    empty = OnlineLedger(player_gains=[0.0] * 3)
    assert alpha_regret(empty, offline_opt=6.0, alpha=0.5) == pytest.approx(3.0)


def test_hindsight_regret_within_hedge_bound():
    rng = np.random.default_rng(11)
    a = random_unit_atoms(rng, 16, 24)
    horizon = 150
    planted = rng.choice(24, size=6, replace=False)
    state = online_state("online_replacement_omp", a, k=5, s=2, horizon=horizon, seed=6)
    for _ in range(horizon):
        support = rng.choice(planted, size=2, replace=False)
        y = a[:, support] @ rng.standard_normal(2)
        online_round(state, y, a)
    regrets = expert_hindsight_regrets(state)
    bound = state.gain_bound * np.sqrt(2 * horizon * np.log(24))
    assert np.all(regrets <= bound + 1e-9)


def test_learning_curve_improves_on_stationary_stream():
    rng = np.random.default_rng(12)
    a = dct2_basis(6)
    planted = rng.choice(36, size=5, replace=False)
    gains_per_seed = []
    for seed in range(8):
        state = online_state("online_replacement_omp", a, k=6, s=2, horizon=200, seed=seed)
        stream_rng = np.random.default_rng(100 + seed)
        for _ in range(200):
            support = stream_rng.choice(planted, size=2, replace=False)
            y = a[:, support] @ stream_rng.standard_normal(2)
            online_round(state, y, a)
        gains = np.array(state.ledger.player_gains)
        gains_per_seed.append((gains[:50].mean(), gains[-50:].mean()))
    early = np.mean([g[0] for g in gains_per_seed])
    late = np.mean([g[1] for g in gains_per_seed])
    assert late > early


def test_seeded_runs_are_reproducible():
    rng = np.random.default_rng(13)
    a = random_unit_atoms(rng, 8, 12)
    ys = [np.random.default_rng(200 + t).standard_normal(8) for t in range(10)]
    results = []
    for _ in range(2):
        state = online_state("online_replacement_omp", a, k=3, s=2, horizon=10, seed=42)
        for y in ys:
            online_round(state, y, a)
        results.append((list(map(tuple, state.ledger.dictionaries)), state.ledger.player_gains))
    assert results[0] == results[1]


@pytest.mark.parametrize("smoothness", [-1.0, 0.0, float("nan"), "abc"])
def test_online_state_rejects_bad_smoothness(smoothness):
    with pytest.raises(ValueError, match="smoothness"):
        online_state("online_replacement_omp", dct2_basis(2), k=3, s=2, smoothness=smoothness)


def test_online_round_rejects_another_ground_set():
    rng = np.random.default_rng(16)
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    state = online_state("online_replacement_greedy", gs, k=3, s=2, horizon=5, seed=9)
    y = rng.standard_normal(16)
    online_round(state, y, gs)
    online_round(state, y, gs.matrix.copy())  # equal atoms are accepted
    other = gs.matrix[:, ::-1]
    with pytest.raises(ValueError, match="ground set"):
        online_round(state, y, other)
    assert state.rounds == 2


def test_deep_copied_state_plays_the_same_rounds():
    # A deep copy turns row views into separate arrays, so experts that held
    # views of a shared weight array would stop seeing the batched updates.
    rng = np.random.default_rng(17)
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    for method in METHODS:
        original = online_state(method, gs, k=4, s=2, horizon=30, seed=10)
        clone = copy.deepcopy(original)
        fed = np.zeros((2, 4, gs.n))
        for _ in range(30):
            y = rng.standard_normal(16)
            for i, state in enumerate((original, clone)):
                _, feedbacks = online_round(state, y, gs)
                fed[i] += feedbacks
        for i, state in enumerate((original, clone)):
            for expert, gains in zip(state.experts, fed[i]):
                assert np.array_equal(expert.cumulative_gains, gains)
        a, b = original.ledger, clone.ledger
        assert (a.player_gains, a.dictionaries, a.supports) == (b.player_gains, b.dictionaries, b.supports)
        assert np.array_equal(a.expert_choice_gains, b.expert_choice_gains)
        assert np.array_equal(expert_hindsight_regrets(original), expert_hindsight_regrets(clone))


@pytest.mark.parametrize("method", METHODS)
def test_deep_copied_state_has_its_own_bank(method):
    # The expert views of a copy read the copy's bank, rounds played on the
    # copy leave the original as it was, and both play a stream alike.
    rng = np.random.default_rng(28)
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    original = online_state(method, gs, k=4, s=2, horizon=None, seed=14)
    online_round(original, rng.standard_normal(16), gs)
    clone = copy.deepcopy(original)
    for i, view in enumerate(clone.experts):
        assert view.bank is clone.bank and view.row == i
        assert np.shares_memory(view.log_weights, clone.bank.log_weights)
        assert not np.shares_memory(view.log_weights, original.bank.log_weights)
    kept = pickle.dumps(original)
    views = [(view.log_weights.copy(), view.cumulative_gains.copy()) for view in original.experts]
    ys = rng.standard_normal((20, 16))
    for y in ys:
        online_round(clone, y, gs)
    assert pickle.dumps(original) == kept
    for view, (log_weights, gains) in zip(original.experts, views):
        assert np.array_equal(view.log_weights, log_weights)
        assert np.array_equal(view.cumulative_gains, gains)
    for y in ys:
        online_round(original, y, gs)
    a, b = original.ledger, clone.ledger
    assert (a.player_gains, a.dictionaries, a.supports) == (b.player_gains, b.dictionaries, b.supports)
    assert np.array_equal(a.expert_choice_gains, b.expert_choice_gains)
    assert np.array_equal(original.bank.log_weights, clone.bank.log_weights)
    assert original.bank.choices == clone.bank.choices
    assert original.rounds == clone.rounds == 21 and original.gain_bound == clone.gain_bound


def dc_pair(support):
    """The support's atoms, sorted, with atom 64 (the Haar duplicate of the DCT DC atom 0) written as 0."""
    return sorted(0 if j == 64 else j for j in support)


@pytest.mark.parametrize("method", METHODS)
def test_gram_round_matches_qr_reference(method):
    # Planted DCT+Haar 8x8 stream that always holds the DC atom, so atoms 0
    # and 64 compete.  Replacement greedy may swap one for the other on gains
    # of rounding size, which also moves the atom to the end of the support,
    # so its supports are compared as sets up to that pair.
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    rng = np.random.default_rng(18)
    planted = np.r_[0, rng.choice(np.arange(1, 128), 7, replace=False)]
    gram_state = online_state(method, gs, k=8, s=3, horizon=200, seed=11)
    reference = online_state(method, gs, k=8, s=3, horizon=200, seed=11)
    for _ in range(200):
        y = gs.matrix[:, rng.choice(planted, 3, replace=False)] @ rng.standard_normal(3)
        y += 0.05 * rng.standard_normal(64)
        tol = 1e-12 * float(y @ y)
        played, feedbacks = online_round(gram_state, y, gs)
        ref_played, ref_feedbacks = online_round_reference(reference, y, gs)
        assert played == ref_played
        assert np.abs(np.array(feedbacks) - np.array(ref_feedbacks)).max() <= tol
        assert abs(gram_state.ledger.player_gains[-1] - reference.ledger.player_gains[-1]) <= tol
        support, ref_support = gram_state.ledger.supports[-1], reference.ledger.supports[-1]
        if method == "online_replacement_greedy":
            assert dc_pair(support) == dc_pair(ref_support)
        else:
            assert support == ref_support


@pytest.mark.parametrize("method", METHODS)
def test_round_whose_gains_overflow_changes_nothing(method):
    # Finite data whose squared correlations overflow: the round names y_t
    # and is refused before the gain bound or the bank is written, so the
    # next ordinary round still learns.
    rng = np.random.default_rng(26)
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    state = online_state(method, gs, k=3, s=2, horizon=20, seed=13)
    online_round(state, rng.standard_normal(16), gs)
    before = copy.deepcopy(state)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="y_t is too large"):
        online_round(state, np.full(16, 1e160), gs)
    assert pickle.dumps(state) == pickle.dumps(before)
    online_round(state, rng.standard_normal(16), gs)
    assert np.isfinite(state.gain_bound) and state.rounds == 2
    assert not np.array_equal(state.bank.log_weights, before.bank.log_weights)


@pytest.mark.parametrize("method", METHODS)
def test_round_whose_gains_overflow_names_y_t_under_warnings_as_errors(method):
    # No np.errstate here: the suite turns warnings into errors, so an
    # overflow warning from the check itself would escape in place of the
    # ValueError that names y_t.
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    state = online_state(method, gs, k=3, s=2, horizon=20, seed=13)
    with pytest.raises(ValueError, match="y_t is too large"):
        online_round(state, np.full(16, 1e160), gs)
    assert state.rounds == 0


def test_online_round_rejects_data_of_another_dimension():
    gs = dct2_basis(4)
    state = online_state("online_replacement_omp", gs, k=3, s=2, horizon=5, seed=11)
    with pytest.raises(DimensionMismatch):
        online_round(state, np.ones(15), gs)
    assert state.rounds == 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_online_round_rejects_nonfinite_data(method, bad):
    # The data are named before any gain reaches the hedge update, and the
    # rejected round leaves the round count, the ledger and the bank as they were.
    rng = np.random.default_rng(19)
    gs = dct2_basis(4)
    state = online_state(method, gs, k=3, s=2, horizon=5, seed=12)
    online_round(state, rng.standard_normal(16), gs)
    before = copy.deepcopy(state)
    y = rng.standard_normal(16)
    y[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        online_round(state, y, gs)
    assert state.rounds == before.rounds == 1
    assert state.gain_bound == before.gain_bound
    ledger, kept = state.ledger, before.ledger
    assert (ledger.player_gains, ledger.dictionaries, ledger.supports) == (
        kept.player_gains,
        kept.dictionaries,
        kept.supports,
    )
    assert np.array_equal(ledger.expert_choice_gains, kept.expert_choice_gains)
    assert np.array_equal(state.bank.log_weights, before.bank.log_weights)
    assert np.array_equal(state.bank.cumulative_gains, before.bank.cumulative_gains)
    assert state.bank.choices == before.bank.choices
