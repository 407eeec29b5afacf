"""Independent brute-force oracles used to pin expected values.

Everything here except ``online_round_reference``, the QR gain forms and
the two per-atom searches deliberately avoids the library's incremental
code paths: least squares go through numpy's dense solvers and optima
come from exhaustive enumeration.  The online round is kept in its
thin-QR form, fed expert by expert, as the reference for the Gram-form
round, together with the QR forms of the exact addition and swap gains
(``addition_gains``, ``swap_gains``) that ``linalg.gram_gains`` computes
in Gram form, written with the plain-expression forms of the in-place
gain kernels (``regain_expression``, ``swap_rows_expression``).  The
coupled families' replacements are searched one atom at a time over
support lists (``block_search_reference``, and
``average_search_reference`` through ``solve_exchange``), as the
reference for the padded-array tables and moves of the stepped families
of ``constraints.family_state``; ``average_move_reference`` is the average
family's move as one ``solve_exchange`` gives it, and ``block_sums_reference``
adds per-point terms block by block in a Python loop, in block order.
``synth_dataset_reference`` and ``extract_patches_reference`` build the
data matrices point by point and tile by tile, as the reference for the
batched products and array filters of ``data_io``.
``hedge_update_reference`` is the hedge update drawing one ``random()``
per expert per round and counting cdf entries <= u, the reference for
the bank's uniform table and first-entry draw.  ``gram_update_reference``
refits each support-size group in ``stack_points(n)``-point chunks, every
step of the refit in one chunk, the reference for ``linalg.gram_update``'s
larger solve chunks.  ``options_reference`` builds a per-point family's
option masks with the swap mask gathered from the (P, m, C) category
table, the reference for the label compare of
``PointFamily.options``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg.lapack import dtrtri

from dictsel.constraints import ExchangeInstance, Replacement, cheapest_removal, solve_exchange
from dictsel.errors import RankDeficient
from dictsel.linalg import SPAN_RTOL, SupportFactorization, atom_matrix, empty_factorization
from dictsel.linalg import factor_insert, factor_remove, stack_points
from dictsel.online import hedge_update


def lstsq_fit(atom_matrix, support, y):
    """Dense least squares on a support; returns (full coeff vector, residual)."""
    w = np.zeros(atom_matrix.shape[1])
    support = list(support)
    if support:
        sol, *_ = np.linalg.lstsq(atom_matrix[:, support], y, rcond=None)
        w[support] = sol
    return w, y - atom_matrix @ w


def f_value(atom_matrix, support, y):
    """Best 0.5-scaled squared-l2 utility achievable on a support."""
    _, resid = lstsq_fit(atom_matrix, support, y)
    return 0.5 * float(y @ y) - 0.5 * float(resid @ resid)


def exchange_optimum(gains, costs, tight, slack):
    """Exhaustive optimum of the budgeted add/remove exchange problem.

    Enumerates all (A, B) pairs with numpy bit tricks; points with
    infinite cost never enter B.
    """
    g = np.asarray(gains, dtype=float)
    c = np.asarray(costs, dtype=float)
    t_count = len(g)
    masks = np.arange(1 << t_count)
    bits = (masks[:, None] >> np.arange(t_count)) & 1
    sizes = bits.sum(axis=1)
    gsums = bits @ g
    csums = bits @ np.where(np.isfinite(c), c, 0.0)
    removable = np.isfinite(c)
    tight_mask = sum(1 << t for t in tight)
    blocked_mask = sum(1 << t for t in range(t_count) if not removable[t])

    best = 0.0
    for b_mask in range(1 << t_count):
        if b_mask & blocked_mask:
            continue
        cost = csums[b_mask]
        cap = sizes[b_mask] + slack
        # A must satisfy A & tight <= B and |A| <= |B| + slack.
        ok = (sizes <= cap) & ((masks & tight_mask & ~b_mask) == 0)
        if ok.any():
            value = float((gsums - cost)[ok].max())
            if value > best:
                best = value
    return best


def best_replacement_oracle(constraint, supports, atom, add_gains, removal_costs, is_feasible):
    """Exhaustive search over all feasible replacements for one atom.

    Per point the options are: leave Z_t alone, add the atom, remove one
    atom, or swap (add plus one removal).  The cartesian product over
    points is filtered by the constraint.  Gains must be decomposable.
    """
    options_per_t = []
    for t, support in enumerate(supports):
        opts = [(None, False, 0.0)]
        if atom not in support:
            opts.append((None, True, add_gains[t]))
        for pos, removed in enumerate(support):
            cost = removal_costs[t][pos]
            opts.append((removed, False, -cost))
            if atom not in support and removed != atom:
                opts.append((removed, True, add_gains[t] - cost))
        options_per_t.append(opts)
    best = 0.0
    for combo in itertools.product(*options_per_t):
        new = [set(z) for z in supports]
        value = 0.0
        for t, (removed, add, gain) in enumerate(combo):
            if removed is not None:
                new[t].discard(removed)
            if add:
                new[t].add(atom)
            value += gain
        if value > best and is_feasible(constraint, new):
            best = value
    return best


def _union_costs(block, supports, removal_costs) -> dict[int, float]:
    """Summed removal cost of each atom used in the block.

    Dropping an atom from every support of the block that holds it frees
    one union slot for the candidate.
    """
    costs: dict[int, float] = {}
    for t in block:
        for pos, held in enumerate(supports[t]):
            costs[held] = costs.get(held, 0.0) + removal_costs[t][pos]
    return costs


def block_search_reference(constraint, supports, atom, add_gains, removal_costs) -> Replacement:
    """Block sparsity's best replacement for one atom, block by block over support lists."""
    per_t: list[tuple[int, int | None, bool]] = []
    total = 0.0
    for block, cap in zip(constraint.blocks, constraint.caps):
        adds = [t for t in block if atom not in supports[t] and add_gains[t] > 0.0]
        base = sum(add_gains[t] for t in adds)
        if base <= 0.0:
            continue
        costs = _union_costs(block, supports, removal_costs)
        best, best_removed = (base if atom in costs or len(costs) < cap else 0.0), None
        costs.pop(atom, None)
        if costs:
            # Highest value, then lowest atom; it must beat leaving the union alone.
            removed = max(costs, key=lambda j: (base - costs[j], -j))
            if base - costs[removed] > best:
                best, best_removed = base - costs[removed], removed
        if best <= 0.0:
            continue
        total += best
        for t in sorted(block):
            removed_here = best_removed if best_removed in supports[t] else None
            if removed_here is not None or t in adds:
                per_t.append((t, removed_here, t in adds))
    per_t.sort()
    return Replacement(atom, per_t, float(total))


def average_search_reference(constraint, supports, atom, add_gains, removal_costs) -> Replacement:
    """Average sparsity's best replacement for one atom: one exchange solve built from support lists."""
    positions = [cheapest_removal(c, z) for c, z in zip(removal_costs, supports)]
    costs = np.array([math.inf if p is None else c[p] for c, p in zip(removal_costs, positions)])
    tight = frozenset(t for t, z in enumerate(supports) if len(z) == constraint.s_t[t])
    slack = constraint.s_prime - sum(len(z) for z in supports)
    g = np.maximum(add_gains, 0.0)
    g[[t for t, z in enumerate(supports) if atom in z]] = 0.0
    added, removed, value = solve_exchange(ExchangeInstance(g, costs, tight, slack))
    per_t = [(t, supports[t][positions[t]] if t in removed else None, t in added) for t in sorted(added | removed)]
    return Replacement(atom, per_t, value)


def average_move_reference(step, atom, add_gains):
    """A stepped ``AverageFamily``'s move for ``atom`` from one ``solve_exchange``: (points, removed, add, gain)."""
    g = np.where((step.index == atom).any(axis=1), 0.0, np.maximum(add_gains, 0.0))
    tight = frozenset(np.flatnonzero(step.tight).tolist())
    added, removed, value = solve_exchange(ExchangeInstance(g, step.costs, tight, step.slack))
    points = np.array(sorted(added | removed), dtype=int)
    removes = np.isin(points, list(removed))
    return points, np.where(removes, step.position[points], -1), np.isin(points, list(added)), value


def block_sums_reference(blocks, rows: np.ndarray) -> np.ndarray:
    """Per-block sums (..., B) of the per-point ``rows`` (..., T), each started at 0.0 and added point by point in block order."""
    sums = np.zeros((*rows.shape[:-1], len(blocks)))
    for b, block in enumerate(blocks):
        for t in block:
            sums[..., b] = sums[..., b] + rows[..., t]
    return sums


def synth_dataset_reference(ground_set, num_points, k_planted, s, seed, planted=None):
    """``data_io.synth_dataset`` point by point: (matrix, provenance), one d x s product per point."""
    a = atom_matrix(ground_set)
    rng = np.random.default_rng(seed)
    if planted is None:
        planted = np.sort(rng.choice(a.shape[1], size=k_planted, replace=False))
    else:
        planted = np.asarray(sorted(int(j) for j in planted))
    y = np.zeros((a.shape[0], num_points))
    for t in range(num_points):
        if s:
            support = rng.choice(planted, size=s, replace=False)
            y[:, t] = a[:, support] @ rng.standard_normal(s)
    seed_repr = [int(x) for x in seed] if isinstance(seed, (list, tuple)) else int(seed)
    return y, {"kind": "synthetic", "seed": seed_repr, "planted": [int(j) for j in planted], "s": int(s)}


def extract_patches_reference(image, num_patches, side, seed) -> np.ndarray:
    """``data_io.extract_patches``'s matrix tile by tile: the variance filter and the normalization per patch."""
    img = np.asarray(image, dtype=float)
    tiles = []
    for i in range(img.shape[0] // side):
        for j in range(img.shape[1] // side):
            tile = img[i * side : (i + 1) * side, j * side : (j + 1) * side]
            if tile.var() >= 1e-8:
                tiles.append(tile.reshape(-1))
    chosen = np.random.default_rng(seed).choice(len(tiles), size=num_patches, replace=False)
    y = np.empty((side * side, num_patches))
    for t, idx in enumerate(chosen):
        patch = tiles[idx] - tiles[idx].mean()
        y[:, t] = patch / patch.std()
    return y


def dictionary_optimum(atom_matrix, data, constraint, k, support_options):
    """Exhaustive two-stage optimum: best k-atom dictionary and supports.

    ``support_options(dictionary_atoms, t)`` yields the candidate supports
    for point t within a dictionary; the caller encodes the constraint
    coupling (for per-point families every option combination is valid).
    """
    n = atom_matrix.shape[1]
    t_count = data.shape[1]
    best = -math.inf
    best_x = None
    for dictionary in itertools.combinations(range(n), k):
        total = 0.0
        for t in range(t_count):
            total += max(
                f_value(atom_matrix, sup, data[:, t])
                for sup in support_options(dictionary, t)
            )
        if total > best:
            best, best_x = total, dictionary
    return best, best_x


def omp_reference(dictionary, y, s):
    """Orthogonal matching pursuit of one point with dense least squares.

    Each step adds the atom most correlated with the residual and refits
    on the support; it stops at s atoms, once the residual norm is at most
    1e-10, or when no atom correlates with the residual (1e-12 relative).
    An atom whose distance to the support's span is below 1e-10 is
    skipped.  Returns (support, squared residual).
    """
    support, dead = [], set()
    resid = y.copy()
    while len(support) < s and len(support) + len(dead) < dictionary.shape[1]:
        rnorm = float(np.linalg.norm(resid))
        if rnorm <= 1e-10:
            break
        corr = np.abs(dictionary.T @ resid)
        corr[support + sorted(dead)] = 0.0
        best = int(np.argmax(corr))
        if corr[best] <= 1e-12 * max(rnorm, 1.0):
            break
        if support:
            _, off_span = lstsq_fit(dictionary[:, support], range(len(support)), dictionary[:, best])
            if np.linalg.norm(off_span) < 1e-10:
                dead.add(best)
                continue
        support.append(best)
        _, resid = lstsq_fit(dictionary, support, y)
    return support, float(resid @ resid)


def regain_expression(num, den):
    """``linalg._regain`` as one expression on fresh arrays: num / (2 * den), 0 where den <= SPAN_RTOL."""
    return np.where(den > SPAN_RTOL, num / (2.0 * np.maximum(den, SPAN_RTOL)), 0.0)


def swap_rows_expression(c, grad, w, gamma, dist):
    """``linalg._swap_rows`` as expressions on fresh arrays, leaving ``c`` as it is."""
    rows = regain_expression((grad[..., None, :] + (w / gamma) * c) ** 2, dist[..., None, :] + c**2 / gamma)
    return rows - 0.5 * w**2 / gamma


def addition_gains(ground_set, state: SupportFactorization, r: np.ndarray) -> np.ndarray:
    """Exact gains f(Z + b) - f(Z) of every atom b; atoms of Z or its span gain 0.

    ``r`` is the residual on the support Z that ``state`` factors; with Q
    its basis, adding b gains <b, r>^2 / (2 * (1 - ||Q^T b||^2)).
    """
    a = atom_matrix(ground_set)
    gains = regain_expression((a.T @ r) ** 2, 1.0 - np.sum((state.q.T @ a) ** 2, axis=0))
    gains[list(state.columns)] = 0.0
    return gains


def swap_gains(ground_set, state: SupportFactorization, y: np.ndarray, r: np.ndarray, positions) -> np.ndarray:
    """Exact gains f(Z - z_j + b) - f(Z) of every atom b, one row per j in ``positions``.

    ``r`` is the residual of ``y`` on Z.  Removing z_j moves the residual
    to r + (w_j / gamma_j) * Q Rinv[j]^T, whose regain of b follows the
    addition formula on Z - z_j:

        (<b, r> + (w_j / gamma_j) * c_jb)^2 / (2 * den_jb) - w_j^2 / (2 * gamma_j)

    with Rinv = R^-1, gamma_j = ||Rinv[j]||^2, w = Rinv Q^T y,
    c = Rinv Q^T A and den_jb = 1 - ||Q^T b||^2 + c_jb^2 / gamma_j.  Atoms
    at squared distance at most ``linalg.SPAN_RTOL`` from span(Z - z_j)
    regain nothing, and atoms of Z gain 0.
    """
    a = atom_matrix(ground_set)
    positions = list(positions)
    rinv, info = dtrtri(state.r.T, lower=1)  # (R^T)^-1 = (R^-1)^T
    if info:
        raise np.linalg.LinAlgError(f"triangular inverse failed (LAPACK info {info})")
    rinv = rinv.T[positions]
    qta = state.q.T @ a
    gamma = np.sum(rinv**2, axis=1)[:, None]
    w = (rinv @ (state.q.T @ y))[:, None]
    rows = swap_rows_expression(rinv @ qta, a.T @ r, w, gamma, 1.0 - np.sum(qta**2, axis=0))
    rows[:, list(state.columns)] = 0.0
    return rows


def gram_update_reference(fit, points, removed, atoms) -> np.ndarray:
    """``linalg.gram_update`` with every step of the refit in one ``stack_points(n)``-point chunk of a size group."""
    points = np.asarray(points, dtype=int)
    removed = np.asarray(removed, dtype=int)
    atoms = np.asarray(atoms, dtype=int)
    drop = removed >= 0
    if drop.any():
        dropped = points[drop]
        rows = fit.index[dropped]
        keep = np.arange(rows.shape[1]) != removed[drop, None]
        fit.index[dropped, :-1] = rows[keep].reshape(len(rows), -1)
        fit.index[dropped, -1] = -1
        fit.size[dropped] -= 1
    g, corr = fit.gram, fit.corr
    appended = np.zeros(len(points), dtype=bool)
    sizes, step = fit.size[points], stack_points(g.shape[0])
    for m in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == m)
        for start in range(0, len(group), step):
            idx = group[start : start + step]
            p, b = points[idx], atoms[idx]
            z = np.concatenate([fit.index[p, :m], np.maximum(b, 0)[:, None]], axis=1)
            zs, zb = z[:, :m], z[:, m]
            gzb = g[zs, zb[:, None]]
            cz = corr[z, p[:, None]]
            gzz = g.take(zs[:, :, None] * len(g) + zs[:, None, :])
            vu = np.linalg.solve(gzz, np.concatenate([cz[:, :m, None], gzb[:, :, None]], axis=2))
            v, u = vu[..., 0], vu[..., 1]
            bv, bu = np.einsum("pj,pjk->kp", gzb, vu)
            norm_sq = g[zb, zb]
            dist = norm_sq - bu
            grow = (b >= 0) & (dist > SPAN_RTOL * norm_sq)
            wb = np.divide(cz[:, m] - bv, dist, out=np.zeros(len(p)), where=grow)
            w = np.concatenate([v - u * wb[:, None], wb[:, None]], axis=1)
            grad = corr[:, p] - (w[:, None, :] @ g.take(z, axis=0))[:, 0].T
            fit.gradients[:, p] = grad
            fit.f_values[p] = 0.5 * (w * (cz + grad[z, np.arange(len(p))[:, None]])).sum(axis=1)
            fit.coeffs[p] = 0.0
            fit.coeffs[p, :m] = w[:, :m]
            fit.coeffs[p[grow], m] = wb[grow]
            fit.index[p[grow], m] = zb[grow]
            fit.size[p[grow]] += 1
            appended[idx] = grow
    fit.rank_skips += int(np.count_nonzero((atoms >= 0) & ~appended))
    return appended


def options_reference(family, points, supports) -> tuple[np.ndarray, np.ndarray]:
    """``PointFamily.options`` with both masks gathered from the (P, m, C) table of held categories.

    ``addable`` takes each atom's entry of the per-category room with
    ``take_along_axis``, without the atom classes; ``swappable`` gathers
    the held table at each atom's category.
    """
    rule = family.rule[points]
    label = np.where(supports >= 0, family.labels[rule[:, None], supports], -1)
    held = label[:, :, None] == np.arange(family.caps.shape[1])  # pads (-1) in no category
    outside = np.ones((len(rule), family.labels.shape[1]), dtype=bool)
    rows, cols = np.nonzero(supports >= 0)
    outside[rows, supports[rows, cols]] = False
    room = held.sum(axis=1) < family.caps[points]
    addable = np.take_along_axis(room, family.labels[rule], axis=1) & outside
    same = np.take_along_axis(held, family.labels[rule][:, None, :], axis=2)
    return addable, same & (outside & ~addable)[:, None, :]


def hedge_update_reference(bank, gains, bound: float) -> list[int]:
    """``online.hedge_update`` drawing each expert's u with one ``random()`` call
    on its generator per round, the atom the count of cdf entries <= u.

    It neither reads nor writes the bank's uniform table.
    """
    g = np.asarray(gains, dtype=float)
    if bank.horizon is None and bank.rounds == 2**bank.epoch:
        bank.epoch += 1
        bank.eta = math.sqrt(8.0 * math.log(g.shape[1]) / 2**bank.epoch)
        bank.log_weights[:] = 0.0
    bank.rounds += 1
    bank.cumulative_gains += g
    bank.log_weights += bank.eta * g / (bound if bound > 0.0 else 1.0)
    w = np.exp(bank.log_weights - bank.log_weights.max(axis=1, keepdims=True))
    cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in bank.rngs])
    bank.choices = np.count_nonzero(cdf <= u[:, None], axis=1).tolist()
    return list(bank.choices)


def online_round_reference(state, y_t, ground_set):
    """``online.online_round`` on thin-QR support factorizations.

    Each slot refits the support with ``factor_insert``/``factor_remove``
    and computes its gains afresh (``addition_gains``/``swap_gains`` for
    replacement greedy, the gradient A^T r for replacement OMP); an atom
    the factorization finds dependent on the support is not added.
    """
    a = atom_matrix(ground_set)
    y = np.asarray(y_t, dtype=float)
    m_val = state.smoothness
    played = list(state.bank.choices)

    fact = empty_factorization(a.shape[0])
    resid = y.copy()
    coeffs = np.zeros(0)
    feedbacks = []
    modular = 0.5 * (a.T @ y) ** 2 if state.method == "online_modular" else None

    for choice in played:
        room = fact.m < state.s
        if state.method == "online_modular":
            gains = modular
        elif state.method == "online_replacement_omp":
            grad_sq = (a.T @ resid) ** 2
            if fact.m:
                grad_sq[list(fact.columns)] = 0.0
            if room:
                gains = grad_sq / m_val
            else:
                cheapest = m_val * float((coeffs**2).min())
                gains = np.maximum(grad_sq / m_val - cheapest, 0.0)
        else:  # online_replacement_greedy
            if room:
                gains = addition_gains(a, fact, resid)
            else:
                swaps = swap_gains(a, fact, y, resid, range(fact.m))
                gains = np.maximum(swaps.max(axis=0), 0.0)
        feedbacks.append(gains)

        if state.method != "online_modular" and gains[choice] > 0.0 and choice not in fact.columns:
            try:
                if room:
                    fact = factor_insert(fact, a, choice)
                else:
                    if state.method == "online_replacement_omp":
                        pos = cheapest_removal(coeffs**2, fact.columns)
                    else:
                        pos = int(np.argmax(swaps[:, choice]))
                    fact = factor_insert(factor_remove(fact, pos), a, choice)
                coeffs, resid = fact.fit(y)
            except RankDeficient:
                pass

    if state.method == "online_modular":
        ranked = sorted(set(played), key=lambda j: (-modular[j], j))
        fact = empty_factorization(a.shape[0])
        for atom in ranked[: state.s]:
            try:
                fact = factor_insert(fact, a, atom)
            except RankDeficient:
                continue
        resid = fact.residual(y)

    realized = 0.5 * (float(y @ y) - float(resid @ resid))
    state.gain_bound = max(state.gain_bound, max(float(g.max()) for g in feedbacks))
    hedge_update(state.bank, feedbacks, state.gain_bound)
    state.ledger.player_gains.append(realized)
    state.ledger.expert_choice_gains.append(np.array([g[c] for g, c in zip(feedbacks, played)]))
    state.ledger.dictionaries.append(played)
    state.ledger.supports.append(list(fact.columns))
    return played, feedbacks
