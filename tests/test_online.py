import copy

import numpy as np
import pytest

from dictsel import assemble, dct2_basis, haar2_basis, ls_solve, utility, utility_gradient
from dictsel.errors import DimensionMismatch
from dictsel.online import (
    METHODS,
    HedgeBank,
    HedgeExpert,
    alpha_regret,
    expert_hindsight_regrets,
    hedge_step,
    hedge_update,
    online_round,
    online_state,
)

from conftest import random_unit_atoms
from oracles import f_value, online_round_reference


def make_expert(n=8, horizon=100, seed=0):
    return HedgeExpert(n, np.random.default_rng(seed), horizon)


def test_hedge_uniform_under_zero_gains():
    expert = make_expert()
    for _ in range(5):
        hedge_step(expert, np.zeros(8))
    assert np.allclose(expert.probabilities, 1.0 / 8)
    assert abs(expert.probabilities.sum() - 1.0) <= 1e-12


def test_hedge_concentrates_on_dominant_atom():
    expert = make_expert(n=64, horizon=200, seed=1)
    gains = np.zeros(64)
    gains[17] = 1.0
    for _ in range(200):
        hedge_step(expert, gains)
    assert expert.probabilities[17] > 0.99
    # Closed form: weight ratio exp(200 * eta) against 63 flat atoms.
    expected = 1.0 / (1.0 + 63 * np.exp(-200 * expert.eta))
    assert expert.probabilities[17] == pytest.approx(expected, rel=1e-9)


def test_hedge_zero_learning_rate_stays_uniform():
    expert = make_expert(seed=2)
    expert.eta = 0.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        hedge_step(expert, rng.uniform(0, 1, size=8))
    assert np.allclose(expert.probabilities, 1.0 / 8)


def test_hedge_rejects_negative_gains():
    expert = make_expert()
    with pytest.raises(ValueError):
        hedge_step(expert, np.array([0.0, -1.0] + [0.0] * 6))


def test_hedge_doubling_trick_runs():
    expert = HedgeExpert(8, np.random.default_rng(4), horizon=None)
    etas = []
    for _ in range(20):
        hedge_step(expert, np.ones(8))
        etas.append(expert.eta)
    assert etas[0] > etas[-1] > 0


@pytest.mark.parametrize("horizon", [1000, None])
def test_hedge_draw_matches_generator_choice(horizon):
    n = 128
    expert = HedgeExpert(n, np.random.default_rng(9), horizon)
    clone = np.random.default_rng(0)  # its state is replaced before every draw
    gains_rng = np.random.default_rng(10)
    profile = gains_rng.exponential(size=n)
    for _ in range(1000):
        gains = profile * gains_rng.random(n)
        expert.scale = max(expert.scale, float(gains.max()))
        clone.bit_generator.state = expert.rng.bit_generator.state
        choice = hedge_step(expert, gains)
        assert choice == clone.choice(n, p=expert.probabilities)
    assert expert.probabilities.max() > 0.5  # the draws were not all uniform


@pytest.mark.parametrize("horizon", [40, None])
@pytest.mark.parametrize("n", [37, 128])
def test_hedge_update_matches_hedge_step_bitwise(horizon, n):
    # One batched update of k experts against k one-expert steps; 40 rounds
    # take the doubling trick through five restarts.
    k = 5
    bank = HedgeBank.zeros(k, n)
    batched = [HedgeExpert(n, np.random.default_rng([20, i]), horizon, bank, i) for i in range(k)]
    single = [HedgeExpert(n, np.random.default_rng([20, i]), horizon) for i in range(k)]
    gains_rng = np.random.default_rng(21)
    for _ in range(40):
        gains = gains_rng.exponential(size=(k, n)) * (gains_rng.random((k, 1)) < 0.9)
        for a, b in zip(batched, single):
            a.scale = b.scale = max(b.scale, float(gains.max()))
        draws = hedge_update(batched, gains)
        assert draws == [hedge_step(expert, g) for expert, g in zip(single, gains)]
        for a, b in zip(batched, single):
            assert np.array_equal(a.log_weights, b.log_weights)
            assert np.array_equal(a.cumulative_gains, b.cumulative_gains)
            assert (a.eta, a.rounds) == (b.eta, b.rounds)


def test_hedge_update_feeds_consecutive_experts_of_one_bank():
    bank = HedgeBank.zeros(3, 8)
    experts = [HedgeExpert(8, np.random.default_rng(i), 10, bank, i) for i in range(3)]
    alone = HedgeExpert(8, np.random.default_rng(3), 10)
    gains = np.ones((2, 8))
    for group in ([experts[0], alone], [experts[0], experts[2]], [experts[1], experts[0]]):
        with pytest.raises(ValueError, match="one bank"):
            hedge_update(group, gains)
    hedge_update(experts[1:], gains)
    assert np.array_equal(bank.cumulative_gains, [np.zeros(8), np.ones(8), np.ones(8)])


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
        for expert, atom in zip(state.experts, played):
            expert.next_choice = atom
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
    for expert, atom in zip(state.experts, [3, 3, 7, 7]):
        expert.next_choice = atom
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


def test_online_round_rejects_data_of_another_dimension():
    gs = dct2_basis(4)
    state = online_state("online_replacement_omp", gs, k=3, s=2, horizon=5, seed=11)
    with pytest.raises(DimensionMismatch):
        online_round(state, np.ones(15), gs)
    assert state.rounds == 0
