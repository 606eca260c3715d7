"""Vectorized kernels that run campaign chunks over stacked samples.

The scalar operations in strain/stress/dec define the semantics; this module
evaluates the same formulas on stacked arrays so full-size campaigns finish in
seconds rather than hours.  The parity suite pins the two paths together.

Determinism: chunk boundaries are a fixed constant (never derived from the
worker count), and chunk results are folded in index order.  Each sample still
owns PCG64(SeedSequence(seed, spawn_key=(index,))) from ``sampling.derive_rng``;
``sampling.draw_chunk_arrays`` reads those streams for a whole chunk in the
documented per-sample order, and replays any slot with a retried metric or a
rejected geometry through the scalar draw path.  So a campaign's output is
identical serial or parallel, run to run, and to the one-sample-at-a-time loop.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dec import VACUOUS_RTOL
from .lagrangians import resolve_lagrangian
from .multilinear import ZERO_FLOOR, LorentzianMetric, canonical_frame
from .sampling import MAX_DOMAIN_TRIES, draw_chunk_arrays  # noqa: F401 (re-export)
from .strain import RANK_RTOL, batch_charpoly_coefficients

# Samples per engine chunk; fixed so chunk boundaries cannot depend on jobs.
CHUNK_SIZE = 512

CHECK_NAMES = (
    "dec_energy",
    "dec_flux",
    "rank_condition",
    "convexity_lemma",
    "supporting_hyperplane",
    "pointwise_corollary",
    "invariant_routes",
    "wedge_identity",
    "cauchy_schwarz",
)

MARGIN_NAMES = (
    "min_energy_margin",
    "max_flux_quadratic_margin",
    "max_invariant_route_residual",
    "max_wedge_identity_residual",
    "max_cauchy_schwarz_excess",
    "min_hyperplane_margin",
)

# Fold directions for margins: -1 keeps minima, +1 keeps maxima.
_MARGIN_SENSE = {
    "min_energy_margin": -1,
    "max_flux_quadratic_margin": 1,
    "max_invariant_route_residual": 1,
    "max_wedge_identity_residual": 1,
    "max_cauchy_schwarz_excess": 1,
    "min_hyperplane_margin": -1,
}


def _empty_counts() -> dict:
    return {"pass": 0, "fail": 0, "vacuous": 0, "warning": 0, "total": 0}


def empty_chunk_result() -> dict:
    return {
        "counts": {name: _empty_counts() for name in CHECK_NAMES},
        "margins": {name: None for name in MARGIN_NAMES},
        "sampling": {
            "domain_draws": 0,
            "domain_accepted": 0,
            "metric_retries": 0,
            "frame_fallbacks": 0,
        },
        "fixtures": [],
    }


def fold_chunk_results(results, max_fixtures: int) -> dict:
    """Fold chunk dicts in order into one aggregate of the same shape."""
    out = empty_chunk_result()
    for res in results:
        for name in CHECK_NAMES:
            for key in out["counts"][name]:
                out["counts"][name][key] += res["counts"][name][key]
        for name in MARGIN_NAMES:
            val = res["margins"][name]
            if val is None:
                continue
            cur = out["margins"][name]
            if cur is None:
                out["margins"][name] = val
            elif _MARGIN_SENSE[name] < 0:
                out["margins"][name] = min(cur, val)
            else:
                out["margins"][name] = max(cur, val)
        for key in out["sampling"]:
            out["sampling"][key] += res["sampling"][key]
        room = max_fixtures - len(out["fixtures"])
        if room > 0:
            out["fixtures"].extend(res["fixtures"][:room])
    return out


def _principal_minor_sums(a: np.ndarray, degree: int) -> np.ndarray:
    """Batched sum of principal degree-minors for a (B, dim, dim) stack."""
    dim = a.shape[1]
    total = np.zeros(a.shape[0])
    for subset in itertools.combinations(range(dim), degree):
        idx = np.array(subset)
        total += np.linalg.det(a[:, idx[:, None], idx[None, :]])
    return total


def _route_residual(s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    denom = np.maximum(1.0, np.maximum(np.abs(s_a), np.abs(s_b)))
    return np.max(np.abs(s_a - s_b) / denom, axis=1)


def _class_label(zero: bool, q: float, band: float, orient: float) -> str:
    if zero:
        return "zero"
    if abs(q) <= band:
        return "past-null" if orient > 0.0 else "future-null"
    if q < 0.0:
        return "past-timelike" if orient > 0.0 else "future-timelike"
    return "spacelike"


def run_chunk(config: dict, start: int, stop: int) -> dict:
    """Evaluate all campaign checks on samples [start, stop) of a config.

    Takes the canonical config dict (see campaign.CampaignConfig.to_dict) and
    returns plain counters, margins, and fixture dicts so results can cross
    process boundaries.
    """
    m1 = int(config["m_plus_1"])
    n = int(config["n"])
    ndir = int(config["num_directions_per_sample"])
    seed = int(config["seed"])
    entry_range = float(config["entry_range"])
    boost_cap = float(config["boost_cap"])
    rank_override = config.get("rank_override")
    tol_alg = float(config["tolerances"]["algebraic"])
    tol_dec = float(config["tolerances"]["dec"])
    max_fixtures = int(config.get("max_fixtures", 100))
    lagr = resolve_lagrangian(
        config["lagrangian"]["name"], config["lagrangian"].get("parameters", {}), m1
    )
    out = empty_chunk_result()
    batch = stop - start
    if batch <= 0:
        return out
    dim = m1

    gs, hs, dps, raps, normals, drawn = draw_chunk_arrays(
        seed, start, stop, m1, n, ndir, entry_range, boost_cap, rank_override, lagr
    )
    samp = out["sampling"]
    samp.update(drawn)

    eye = np.eye(dim)
    ginv = np.linalg.inv(gs)
    pull = np.einsum("bki,bkl,blj->bij", dps, hs, dps, optimize=True)
    pull = 0.5 * (pull + pull.transpose(0, 2, 1))
    d = ginv @ pull

    s = batch_charpoly_coefficients(d)
    s_full = np.concatenate([np.ones((batch, 1)), s], axis=1)
    pw = [np.broadcast_to(eye, (batch, dim, dim))]
    for _ in range(dim - 1):
        pw.append(d @ pw[-1])
    p = np.empty((batch, dim))
    for j in range(1, dim + 1):
        p[:, j - 1] = np.einsum("bij,bji->b", d, pw[j - 1])

    sf = np.ones((batch, dim + 1))
    for j in range(1, dim + 1):
        acc = np.zeros(batch)
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * sf[:, j - i] * p[:, i - 1]
        sf[:, j] = acc / j
    s_newton = sf[:, 1:]
    s_wedge = np.stack(
        [_principal_minor_sums(d, j) for j in range(1, dim + 1)], axis=1
    )
    route_resid = np.maximum(_route_residual(s, s_newton), _route_residual(s, s_wedge))
    route_ok = route_resid <= tol_alg

    # Elementary stress stack T_j and a-priori scales.
    t_all = np.empty((batch, dim, dim, dim))
    scale_j = np.empty((batch, dim))
    pn = np.linalg.norm(pull, axis=(1, 2))
    dn = np.linalg.norm(d, axis=(1, 2))
    gn = np.linalg.norm(gs, axis=(1, 2))
    for j in range(1, dim + 1):
        mj = np.zeros((batch, dim, dim))
        m_bound = np.zeros(batch)
        power = np.ones(batch)
        for i in range(j):
            mj += (-1) ** i * s_full[:, j - 1 - i, None, None] * pw[i]
            m_bound += np.abs(s_full[:, j - 1 - i]) * power
            power = power * dn
        pm = pull @ mj
        t_all[:, j - 1] = (
            0.5 * (pm + pm.transpose(0, 2, 1)) - 0.5 * s[:, j - 1, None, None] * gs
        )
        scale_j[:, j - 1] = pn * m_bound + 0.5 * np.abs(s[:, j - 1]) * gn

    grad = np.asarray(lagr.gradient(s), dtype=float)
    fval = np.asarray(lagr.evaluate(s), dtype=float)
    grad_dot_s = np.einsum("bj,bj->b", grad, s)
    t_comb = np.einsum("bj,bjkl->bkl", grad, t_all)
    t_comb = t_comb - 0.5 * (fval - grad_dot_s)[:, None, None] * gs
    scale_comb = np.einsum("bj,bj->b", np.abs(grad), scale_j)
    scale_comb = scale_comb + 0.5 * (
        np.abs(fval) + np.einsum("bj,bj->b", np.abs(grad), np.abs(s))
    ) * gn
    t_norm = np.linalg.norm(t_comb, axis=(1, 2))
    vacuous = t_norm <= VACUOUS_RTOL * scale_comb

    # Frames: coordinate-seeded Gram-Schmidt, batched, with scalar fallback.
    frames = np.empty((batch, dim, dim))
    with np.errstate(invalid="ignore", divide="ignore"):
        e0 = np.zeros((batch, dim))
        e0[:, 0] = 1.0 / np.sqrt(-gs[:, 0, 0])
        frames[:, :, 0] = e0
        for k in range(1, dim):
            v = np.zeros((batch, dim))
            v[:, k] = 1.0
            for a in range(k):
                e = frames[:, :, a]
                ge = np.einsum("bij,bj->bi", gs, e)
                coef = np.einsum("bi,bi->b", v, ge) / np.einsum("bi,bi->b", e, ge)
                v = v - coef[:, None] * e
            vg = np.einsum("bi,bij,bj->b", v, gs, v)
            frames[:, :, k] = v / np.sqrt(vg)[:, None]
    eta = np.eye(dim)
    eta[0, 0] = -1.0
    gram = np.einsum("bic,bij,bjd->bcd", frames, gs, frames, optimize=True)
    bad = ~np.all(np.abs(gram - eta) <= 1e-10, axis=(1, 2))
    bad |= ~np.all(np.isfinite(frames), axis=(1, 2))
    for idx in np.nonzero(bad)[0]:
        frames[idx] = canonical_frame(LorentzianMetric(gs[idx])).basis
        samp["frame_fallbacks"] += 1

    # Directions assembled from the raw per-sample draws, then renormalized
    # exactly as dec_witness does.
    if dim > 1:
        lengths = np.linalg.norm(normals, axis=2, keepdims=True)
        fallback = np.zeros(dim - 1)
        fallback[0] = 1.0
        unit = np.where(
            lengths > 0.0, normals / np.where(lengths == 0.0, 1.0, lengths), fallback
        )
        xs = np.cosh(raps)[:, :, None] * frames[:, None, :, 0] + np.sinh(raps)[
            :, :, None
        ] * np.einsum("bdk,bik->bdi", unit, frames[:, :, 1:])
    else:
        xs = np.broadcast_to(frames[:, None, :, 0], (batch, ndir, dim)).copy()
    xx = np.einsum("bdi,bij,bdj->bd", xs, gs, xs, optimize=True)
    xs = xs / np.sqrt(-xx)[:, :, None]

    # DEC witnesses for every direction.
    tx = np.einsum("bkl,bdl->bdk", t_comb, xs)
    txx = np.einsum("bdk,bdk->bd", xs, tx)
    y = np.einsum("bkl,bdl->bdk", ginv, tx)
    q = np.einsum("bdk,bdk->bd", tx, y)
    ynorm2 = np.einsum("bdk,bdk->bd", y, y)
    orient = np.einsum("bdk,bkl,bdl->bd", xs, gs, y, optimize=True)
    scale_e = t_norm[:, None] * np.einsum("bdk,bdk->bd", xs, xs)
    scale_q = gn[:, None] * ynorm2
    band = tol_dec * scale_q
    zero_y = np.sqrt(ynorm2) <= ZERO_FLOOR
    energy_ok = txx >= -tol_dec * scale_e
    flux_ok = (q <= band) & (zero_y | (orient > 0.0))

    nonvac = ~vacuous
    counts = out["counts"]
    counts["dec_energy"]["total"] += batch * ndir
    counts["dec_flux"]["total"] += batch * ndir
    counts["dec_energy"]["vacuous"] += int(vacuous.sum()) * ndir
    counts["dec_flux"]["vacuous"] += int(vacuous.sum()) * ndir
    e_fail = ~energy_ok & nonvac[:, None]
    f_fail = ~flux_ok & nonvac[:, None]
    counts["dec_energy"]["fail"] += int(e_fail.sum())
    counts["dec_flux"]["fail"] += int(f_fail.sum())
    counts["dec_energy"]["pass"] += int((energy_ok & nonvac[:, None]).sum())
    counts["dec_flux"]["pass"] += int((flux_ok & nonvac[:, None]).sum())

    margins = out["margins"]
    if nonvac.any():
        with np.errstate(invalid="ignore", divide="ignore"):
            e_margin = np.where(scale_e > 0.0, txx / np.where(scale_e == 0.0, 1.0, scale_e), 0.0)
            q_margin = np.where(scale_q > 0.0, q / np.where(scale_q == 0.0, 1.0, scale_q), 0.0)
        margins["min_energy_margin"] = float(np.min(e_margin[nonvac, :]))
        margins["max_flux_quadratic_margin"] = float(np.max(q_margin[nonvac, :]))

    # Rank condition for every degree.
    sv = np.linalg.svd(dps, compute_uv=False)
    top = sv[:, 0]
    ranks = np.where(
        top > 0.0, np.sum(sv > RANK_RTOL * top[:, None], axis=1), 0
    ).astype(int)
    tj_norm = np.linalg.norm(t_all, axis=(2, 3))
    vanished = tj_norm <= tol_dec * scale_j
    degrees = np.arange(1, dim + 1)
    expected = degrees[None, :] > ranks[:, None]
    rank_ok = vanished == expected
    rank_warn = ~rank_ok & vanished
    rank_fail = ~rank_ok & ~vanished
    counts["rank_condition"]["total"] += batch * dim
    counts["rank_condition"]["pass"] += int(rank_ok.sum())
    counts["rank_condition"]["warning"] += int(rank_warn.sum())
    counts["rank_condition"]["fail"] += int(rank_fail.sum())

    # Combination lemma at the first sampled direction.
    x0 = xs[:, 0]
    tjx = np.einsum("bjkl,bl->bjk", t_all, x0) * grad[:, :, None]
    yj = np.einsum("bkl,bjl->bjk", ginv, tjx)
    qj = np.einsum("bjk,bjk->bj", tjx, yj)
    yjn2 = np.einsum("bjk,bjk->bj", yj, yj)
    orientj = np.einsum("bk,bkl,bjl->bj", x0, gs, yj, optimize=True)
    zeroj = np.sqrt(yjn2) <= ZERO_FLOOR
    bandj = tol_dec * gn[:, None] * yjn2
    pastj = zeroj | ((qj <= bandj) & (orientj > 0.0))
    premise = pastj.all(axis=1)
    conclusion = zero_y[:, 0] | ((q[:, 0] <= band[:, 0]) & (orient[:, 0] > 0.0))
    lemma_ok = ~premise | conclusion
    counts["convexity_lemma"]["total"] += batch
    counts["convexity_lemma"]["pass"] += int(lemma_ok.sum())
    counts["convexity_lemma"]["fail"] += int((~lemma_ok).sum())

    hdot = grad_dot_s
    hscale = np.maximum(1.0, np.maximum(np.abs(fval), np.abs(hdot)))
    hmargin = (fval - hdot) / hscale
    hyper_ok = hmargin >= -tol_dec
    counts["supporting_hyperplane"]["total"] += batch
    counts["supporting_hyperplane"]["pass"] += int(hyper_ok.sum())
    counts["supporting_hyperplane"]["fail"] += int((~hyper_ok).sum())
    margins["min_hyperplane_margin"] = float(np.min(hmargin))

    # Pointwise corollary, only when the flags qualify.
    flags = lagr.flags
    corollary_applies = flags.defocusing and flags.zeroed and flags.nondegenerate
    if corollary_applies:
        dnorm = np.linalg.norm(dps, axis=(1, 2))
        tensor_zero = t_norm <= tol_dec * scale_comb
        coroll_ok = ~tensor_zero | (dnorm <= ZERO_FLOOR)
        counts["pointwise_corollary"]["total"] += batch
        counts["pointwise_corollary"]["pass"] += int(coroll_ok.sum())
        counts["pointwise_corollary"]["fail"] += int((~coroll_ok).sum())
    else:
        coroll_ok = np.ones(batch, dtype=bool)

    counts["invariant_routes"]["total"] += batch
    counts["invariant_routes"]["pass"] += int(route_ok.sum())
    counts["invariant_routes"]["fail"] += int((~route_ok).sum())
    margins["max_invariant_route_residual"] = float(np.max(route_resid))

    # Frame wedge identity and the Cauchy-Schwarz chain, per degree.
    pf = np.einsum("bic,bij,bjd->bcd", frames, pull, frames, optimize=True)
    spatial = list(range(1, dim))
    t00 = np.einsum("bk,bjkl,bl->bj", frames[:, :, 0], t_all, frames[:, :, 0])
    wedge_resid = np.empty((batch, dim))
    cs_excess = np.empty((batch, dim))
    for j in range(1, dim + 1):
        perp = np.zeros(batch)
        for alpha in itertools.combinations(spatial, j - 1):
            idx = np.array((0,) + alpha)
            perp += np.linalg.det(pf[:, idx[:, None], idx[None, :]])
        par = np.zeros(batch)
        for alpha in itertools.combinations(spatial, j):
            idx = np.array(alpha)
            par += np.linalg.det(pf[:, idx[:, None], idx[None, :]])
        recon = 0.5 * (perp + par)
        denom = np.maximum(
            1.0, np.maximum(np.abs(t00[:, j - 1]), 0.5 * (np.abs(perp) + np.abs(par)))
        )
        wedge_resid[:, j - 1] = np.abs(t00[:, j - 1] - recon) / denom
        if dim > 1:
            t0i = np.einsum(
                "bk,bkl,bli->bi", frames[:, :, 0], t_all[:, j - 1], frames[:, :, 1:]
            )
            sumsq = np.sum(t0i**2, axis=1)
        else:
            sumsq = np.zeros(batch)
        cs_excess[:, j - 1] = (sumsq - t00[:, j - 1] ** 2) / np.maximum(
            1.0, t00[:, j - 1] ** 2
        )
    wedge_ok = wedge_resid <= tol_alg
    cs_ok = cs_excess <= tol_alg
    counts["wedge_identity"]["total"] += batch * dim
    counts["wedge_identity"]["pass"] += int(wedge_ok.sum())
    counts["wedge_identity"]["fail"] += int((~wedge_ok).sum())
    counts["cauchy_schwarz"]["total"] += batch * dim
    counts["cauchy_schwarz"]["pass"] += int(cs_ok.sum())
    counts["cauchy_schwarz"]["fail"] += int((~cs_ok).sum())
    margins["max_wedge_identity_residual"] = float(np.max(wedge_resid))
    margins["max_cauchy_schwarz_excess"] = float(np.max(cs_excess))

    # Failure fixtures, in sample order, capped.
    fixtures = out["fixtures"]

    def base_fixture(k: int, kind: str) -> dict:
        return {
            "schema_version": 1,
            "kind": kind,
            "sample_index": int(start + k),
            "seed": seed,
            "m_plus_1": m1,
            "n": n,
            "lagrangian": {
                "name": config["lagrangian"]["name"],
                "parameters": dict(config["lagrangian"].get("parameters", {})),
            },
            "tolerances": {"algebraic": tol_alg, "dec": tol_dec},
            "metric": gs[k].tolist(),
            "target_metric": hs[k].tolist(),
            "dphi": dps[k].tolist(),
        }

    def dec_fixture(k: int, dd: int, kind: str) -> dict:
        fx = base_fixture(k, kind)
        fx["direction"] = xs[k, dd].tolist()
        fx["recorded"] = {
            "energy": float(txx[k, dd]),
            "energy_scale": float(scale_e[k, dd]),
            "flux_quadratic": float(q[k, dd]),
            "flux_scale": float(scale_q[k, dd]),
            "flux_class": _class_label(
                bool(zero_y[k, dd]), float(q[k, dd]), float(band[k, dd]),
                float(orient[k, dd]),
            ),
            "energy_ok": bool(energy_ok[k, dd]),
            "flux_ok": bool(flux_ok[k, dd]),
        }
        return fx

    # Only samples with some failed check can yield a fixture.
    flagged = (
        (nonvac & ~(energy_ok & flux_ok).all(axis=1))
        | rank_fail.any(axis=1)
        | ~lemma_ok
        | ~hyper_ok
        | ~coroll_ok
        | ~route_ok
        | ~(wedge_ok & cs_ok).all(axis=1)
    )
    for k in np.flatnonzero(flagged).tolist():
        if len(fixtures) >= max_fixtures:
            break
        if nonvac[k]:
            for dd in range(ndir):
                if len(fixtures) >= max_fixtures:
                    break
                if not energy_ok[k, dd]:
                    fixtures.append(dec_fixture(k, dd, "dec_energy"))
                if len(fixtures) < max_fixtures and not flux_ok[k, dd]:
                    fixtures.append(dec_fixture(k, dd, "dec_flux"))
        for j in range(dim):
            if len(fixtures) >= max_fixtures:
                break
            if rank_fail[k, j]:
                fx = base_fixture(k, "rank_condition")
                fx["degree"] = j + 1
                fx["recorded"] = {
                    "rank": int(ranks[k]),
                    "stress_norm": float(tj_norm[k, j]),
                    "scale": float(scale_j[k, j]),
                    "consistent": False,
                }
                fixtures.append(fx)
        if len(fixtures) < max_fixtures and not lemma_ok[k]:
            fx = base_fixture(k, "convexity_lemma")
            fx["direction"] = x0[k].tolist()
            fx["recorded"] = {
                "component_classes": [
                    _class_label(
                        bool(zeroj[k, j]), float(qj[k, j]), float(bandj[k, j]),
                        float(orientj[k, j]),
                    )
                    for j in range(dim)
                ],
                "combined_class": _class_label(
                    bool(zero_y[k, 0]), float(q[k, 0]), float(band[k, 0]),
                    float(orient[k, 0]),
                ),
                "premise": bool(premise[k]),
                "conclusion": bool(conclusion[k]),
                "holds": False,
            }
            fixtures.append(fx)
        if len(fixtures) < max_fixtures and not hyper_ok[k]:
            fx = base_fixture(k, "supporting_hyperplane")
            fx["recorded"] = {
                "value": float(fval[k]),
                "gradient_dot_s": float(hdot[k]),
                "margin": float(hmargin[k]),
            }
            fixtures.append(fx)
        if len(fixtures) < max_fixtures and not coroll_ok[k]:
            fx = base_fixture(k, "pointwise_corollary")
            fx["recorded"] = {
                "dphi_norm": float(np.linalg.norm(dps[k])),
                "tensor_norm": float(t_norm[k]),
                "scale": float(scale_comb[k]),
                "holds": False,
            }
            fixtures.append(fx)
        if len(fixtures) < max_fixtures and not route_ok[k]:
            fx = base_fixture(k, "invariant_routes")
            fx["recorded"] = {
                "residual": float(route_resid[k]),
                "s_charpoly": s[k].tolist(),
                "s_newton": s_newton[k].tolist(),
                "s_wedge": s_wedge[k].tolist(),
            }
            fixtures.append(fx)
        for j in range(dim):
            if len(fixtures) >= max_fixtures:
                break
            if not wedge_ok[k, j]:
                fx = base_fixture(k, "wedge_identity")
                fx["degree"] = j + 1
                fx["recorded"] = {"residual": float(wedge_resid[k, j])}
                fixtures.append(fx)
            if len(fixtures) < max_fixtures and not cs_ok[k, j]:
                fx = base_fixture(k, "cauchy_schwarz")
                fx["degree"] = j + 1
                fx["recorded"] = {"excess": float(cs_excess[k, j])}
                fixtures.append(fx)
    return out
