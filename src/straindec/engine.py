"""Campaign chunks: draw the samples, run the batched kernels, tally, record fixtures.

The batched kernels in strain, stress, multilinear, sampling and dec (run
together by ``dec.CheckStack``) are the only implementation of each formula
and fix the report bytes; the single-point API and fixture replay call the
same kernels on a batch of one.  ``run_chunk`` runs the checks that read no
direction on the whole chunk and the DIRECTED ones on one block of
CONTRACT_BLOCK_ROWS direction rows at a time, drawing that block's
rapidities and normals when it reaches the block, so a chunk holds one block
of direction rows whatever K is.  This is the only place that decides the
block: ``sampling.draw_chunk_arrays`` draws the blocks it is told to, and
the kernels work on whatever stack they get.  ``FIXTURES`` is the one table of
fixture kinds: ``run_chunk`` records failures with it, and
``campaign.replay_fixture`` recomputes a fixture's record with the same
function.

Determinism: chunk boundaries are a fixed constant (never derived from the
worker count), and chunk results are folded in index order.  Each sample still
owns PCG64(SeedSequence(seed, spawn_key=(index,))) from ``sampling.derive_rng``;
``sampling.draw_chunk_arrays`` reads those streams for a whole chunk in the
documented per-sample order, computing the same SeedSequence and PCG64 states
arithmetically rather than building them per sample (``derive_rng`` is the
reference, and a chunk reaching index 2**32 uses it), resumes each slot's
stream where its directions start when their block runs, and replays any
slot with a retried metric or a rejected geometry through the scalar draw
path.  So a campaign's output is identical serial or parallel, run to run,
and to the one-sample-at-a-time loop.
"""

from __future__ import annotations

import numpy as np

from .dec import (
    CheckStack,
    DirectedStack,
    corollary_applies,
)
from .lagrangians import canonical_parameters, resolve_lagrangian
from .sampling import (  # noqa: F401 (MAX_DOMAIN_TRIES: perfbench/workloads.py reads it here)
    MAX_DOMAIN_TRIES,
    batch_assemble_directions,
    draw_chunk_arrays,
)

# Samples per engine chunk; fixed so chunk boundaries cannot depend on jobs.
CHUNK_SIZE = 512
# Direction rows (samples x directions) per block of run_chunk's DIRECTED
# checks and of its direction draws: 64 samples of 256 directions.  The only
# bound on the drawn directions and the direction kernels' temporaries,
# since batch_assemble_directions and batch_contract size their scratch to
# the stack they get.
CONTRACT_BLOCK_ROWS = 16384

# The schema version configs, reports and fixtures write, and loading checks.
SCHEMA_VERSION = 1

# Margins, each with the function that folds two chunks' values into one.
MARGIN_FOLDS = {
    "min_energy_margin": min,
    "max_flux_quadratic_margin": max,
    "max_invariant_route_residual": max,
    "max_wedge_identity_residual": max,
    "max_cauchy_schwarz_excess": max,
    "min_hyperplane_margin": min,
}


def _empty_counts() -> dict:
    return {"pass": 0, "fail": 0, "vacuous": 0, "warning": 0, "total": 0}


def empty_chunk_result() -> dict:
    return {
        "counts": {name: _empty_counts() for name in CHECK_NAMES},
        "margins": {name: None for name in MARGIN_FOLDS},
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
        for name, fold in MARGIN_FOLDS.items():
            val, cur = res["margins"][name], out["margins"][name]
            if val is not None:
                out["margins"][name] = val if cur is None else fold(cur, val)
        for key in out["sampling"]:
            out["sampling"][key] += res["sampling"][key]
        room = max_fixtures - len(out["fixtures"])
        if room > 0:
            out["fixtures"].extend(res["fixtures"][:room])
    return out


def _ratio(value: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """value / scale, and 0 where the scale is not positive."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(scale > 0.0, value / np.where(scale == 0.0, 1.0, scale), 0.0)


def _record_dec(st: DirectedStack, k: int, i: int) -> dict:
    w = st.witness
    return {
        "direction": w.directions[k, i].tolist(),
        "recorded": {
            "energy": float(w.energy[k, i]),
            "energy_scale": float(w.energy_scale[k, i]),
            "flux_quadratic": float(w.flux.quadratic[k, i]),
            "flux_scale": float(w.flux.scale[k, i]),
            "flux_class": w.flux.causal_class(k, i).value,
            "energy_ok": bool(w.energy_ok[k, i]),
            "flux_ok": bool(w.flux.ok[k, i]),
        },
    }


def _record_rank(st: CheckStack, k: int, j: int) -> dict:
    return {
        "degree": j + 1,
        "recorded": {
            "rank": int(st.rank[k]),
            "stress_norm": float(st.elementary_norms[k, j]),
            "scale": float(st.elementary_scales[k, j]),
            "consistent": bool(st.rank_condition[k, j]),
        },
    }


def _record_convexity(st: DirectedStack, k: int, _: int) -> dict:
    return {
        "direction": st.witness.directions[k, 0].tolist(),
        "recorded": {
            "component_classes": [
                st.components.causal_class(k, j).value for j in range(st.g.shape[1])
            ],
            "combined_class": st.witness.flux.causal_class(k, 0).value,
            "premise": bool(st.premise[k]),
            "conclusion": bool(st.conclusion[k]),
            "holds": bool(st.convexity_lemma[k]),
        },
    }


def _record_hyperplane(st: CheckStack, k: int, _: int) -> dict:
    _, fval, dot = st.terms
    return {
        "recorded": {
            "value": float(fval[k]),
            "gradient_dot_s": float(dot[k]),
            "margin": float(st.hyperplane_margin[k]),
        }
    }


def _record_corollary(st: CheckStack, k: int, _: int) -> dict:
    return {
        "recorded": {
            # The norm of one 2-D map (a dot product), as always recorded.
            "dphi_norm": float(np.linalg.norm(st.dphi[k])),
            "tensor_norm": float(st.tensor_norm[k]),
            "scale": float(st.scale[k]),
            "holds": bool(st.pointwise_corollary[k]),
        }
    }


def _record_routes(st: CheckStack, k: int, _: int) -> dict:
    s_newton, s_wedge = st.routes
    return {
        "recorded": {
            "residual": float(st.route_residual[k]),
            "s_charpoly": st.s[k].tolist(),
            "s_newton": s_newton[k].tolist(),
            "s_wedge": s_wedge[k].tolist(),
        }
    }


def _record_wedge(st: CheckStack, k: int, j: int) -> dict:
    return {"degree": j + 1, "recorded": {"residual": float(st.wedge[0][k, j])}}


def _record_cauchy_schwarz(st: CheckStack, k: int, j: int) -> dict:
    return {"degree": j + 1, "recorded": {"excess": float(st.wedge[1][k, j])}}


# Fixture kinds by the group they are recorded in.  Per sample, groups come
# in this order; inside a group, kinds interleave over its index (direction or
# degree), and kinds with one record function share what it returns there.
# "dec" is the legacy single-direction DEC kind, replayed only.
FIXTURE_GROUPS = (
    (("dec_energy", _record_dec), ("dec_flux", _record_dec)),
    (("rank_condition", _record_rank),),
    (("convexity_lemma", _record_convexity),),
    (("supporting_hyperplane", _record_hyperplane),),
    (("pointwise_corollary", _record_corollary),),
    (("invariant_routes", _record_routes),),
    (("wedge_identity", _record_wedge), ("cauchy_schwarz", _record_cauchy_schwarz)),
)
FIXTURES = {"dec": _record_dec}
FIXTURES.update(kind_record for group in FIXTURE_GROUPS for kind_record in group)
# The checks a chunk counts, one per recorded fixture kind, in group order.
CHECK_NAMES = tuple(kind for group in FIXTURE_GROUPS for kind, _ in group)
# The checks that read directions: run_chunk evaluates them on a
# ``DirectedStack`` view of one row block at a time.
DIRECTED = ("dec_energy", "dec_flux", "convexity_lemma")


def _tally(count: dict, passed: np.ndarray, failed: np.ndarray) -> None:
    count["total"] += passed.size
    count["pass"] += int(passed.sum())
    count["fail"] += int(failed.sum())


def _record_failures(fixtures, max_fixtures, failed, st, view, lo, sample) -> bool:
    """Append the fixtures of one row block's failures; False once the cap is met.

    ``failed`` maps each check to its failure mask over the block's samples
    (local row j is chunk row lo + j), in sample order, then group order.
    The DIRECTED groups record from the block's view ``view`` at j, the rest
    from the chunk stack ``st`` at lo + j; ``sample(k)`` gives the fields
    every fixture of chunk row k shares.
    """
    flagged = np.any([mask.any(axis=1) for mask in failed.values()], axis=0)
    for j in np.flatnonzero(flagged).tolist():
        shared = sample(lo + j)
        for group in FIXTURE_GROUPS:
            first = group[0][0]
            if first not in failed:
                continue
            src, at = (view, j) if first in DIRECTED else (st, lo + j)
            for i in range(failed[first].shape[1]):
                made = None  # (record function, its fields) at this (j, i)
                for kind, record in group:
                    if not failed[kind][j, i]:
                        continue
                    if len(fixtures) >= max_fixtures:
                        return False
                    if made is None or made[0] is not record:
                        made = record, record(src, at, i)
                    fixtures.append({**shared, "kind": kind, **made[1]})
    return len(fixtures) < max_fixtures


def run_chunk(config: dict, start: int, stop: int) -> dict:
    """Evaluate all campaign checks on samples [start, stop) of a config.

    Takes the canonical config dict (see campaign.CampaignConfig.to_dict) and
    returns plain JSON counters, margins, and fixture dicts, so results can
    cross process boundaries.  The config's ``max_fixtures`` caps the fixtures
    this chunk builds; counts and margins always cover every sample.  Each
    fixture is its own dict, but the fixtures of one sample share their
    ``metric``, ``target_metric`` and ``dphi`` lists, the chunk's fixtures
    share their ``lagrangian`` and ``tolerances`` dicts, and a group's record
    function runs once per (sample, index): the ``dec_energy`` and
    ``dec_flux`` fixtures of one direction share its ``direction`` list and
    ``recorded`` dict.  So each value is built once and ``campaign.dump_json``
    formats it once.  Pickling keeps the sharing.

    The checks that read no direction run on the whole chunk's
    ``CheckStack``.  The DIRECTED checks run one block of
    CONTRACT_BLOCK_ROWS // K samples at a time, on a view of the stack's rows
    along that block's directions, which is tallied, folded into the margins
    and scanned for fixtures before the next block is drawn and assembled.
    So a chunk holds one block of direction rows, its drawn rapidities and
    normals included, whatever K is.  Min and max fold exactly, and the
    draws are those of the one-sample-at-a-time loop, so the result does not
    depend on the block size.
    """
    m1 = int(config["m_plus_1"])
    n = int(config["n"])
    seed = int(config["seed"])
    num_dirs = int(config["num_directions_per_sample"])
    tol_alg = float(config["tolerances"]["algebraic"])
    tol_dec = float(config["tolerances"]["dec"])
    max_fixtures = int(config["max_fixtures"])
    lagr_name = config["lagrangian"]["name"]
    lagr_params = canonical_parameters(lagr_name, config["lagrangian"]["parameters"])
    lagr = resolve_lagrangian(lagr_name, lagr_params, m1)
    out = empty_chunk_result()
    batch = stop - start
    if batch <= 0:
        return out

    # Draw: the geometries now, the directions one row block at a time.
    step = max(1, CONTRACT_BLOCK_ROWS // max(num_dirs, 1))  # the draw refuses K < 1
    gs, hs, dps, direction_blocks, drawn = draw_chunk_arrays(
        seed, start, stop, m1, n, num_dirs, step,
        float(config["entry_range"]), float(config["boost_cap"]),
        config["rank_override"], lagr,
    )
    out["sampling"].update(drawn)

    # The checks without directions, on the whole chunk: failure masks as
    # (B, m+1) or (B, 1), tallies and margins.
    st = CheckStack(gs, hs, dps, lagr, tol_dec, tol_alg)
    frames, out["sampling"]["frame_fallbacks"] = st.frames
    counts, margins = out["counts"], out["margins"]
    checks = CHECK_NAMES
    if not corollary_applies(lagr):
        checks = tuple(name for name in CHECK_NAMES if name != "pointwise_corollary")
    failed = {}
    for name in checks:
        if name in DIRECTED:
            continue
        ok = getattr(st, name).reshape(batch, -1)
        failed[name] = ~ok & ~st.vanished if name == "rank_condition" else ~ok
        _tally(counts[name], ok, failed[name])
    for name in ("dec_energy", "dec_flux"):
        counts[name]["vacuous"] += int(st.vacuous.sum()) * num_dirs
    counts["rank_condition"]["warning"] += int((~st.rank_condition & st.vanished).sum())
    margins["min_hyperplane_margin"] = float(np.min(st.hyperplane_margin))
    margins["max_invariant_route_residual"] = float(np.max(st.route_residual))
    margins["max_wedge_identity_residual"] = float(np.max(st.wedge[0]))
    margins["max_cauchy_schwarz_excess"] = float(np.max(st.wedge[1]))

    fixtures = out["fixtures"]
    lagr_info = {"name": lagr_name, "parameters": lagr_params}
    tolerances = {"algebraic": tol_alg, "dec": tol_dec}

    def sample(k: int) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "sample_index": start + k,
            "seed": seed,
            "m_plus_1": m1,
            "n": n,
            "lagrangian": lagr_info,
            "tolerances": tolerances,
            "metric": gs[k].tolist(),
            "target_metric": hs[k].tolist(),
            "dphi": dps[k].tolist(),
        }

    # The DIRECTED checks, one row block at a time: tallies, the witness
    # margins of counted (non-vacuous) rows, and the block's fixtures.
    counted = ~st.vacuous[:, None]
    energy_mins, flux_maxes = [], []
    room = max_fixtures > 0
    for lo, (raps, normals) in zip(range(0, batch, step), direction_blocks):
        rows = slice(lo, lo + step)
        view = st.rows(rows).along(batch_assemble_directions(frames[rows], raps, normals))
        live = counted[rows]
        block_failed = {}
        for name in DIRECTED:
            ok = getattr(view, name).reshape(len(live), -1)
            passed, bad = (ok & live, ~ok & live) if name.startswith("dec_") else (ok, ~ok)
            _tally(counts[name], passed, bad)
            block_failed[name] = bad
        if live.any():
            w, keep = view.witness, live[:, 0]
            energy_mins.append(np.min(_ratio(w.energy, w.energy_scale)[keep]))
            flux_maxes.append(np.max(_ratio(w.flux.quadratic, w.flux.scale)[keep]))
        if room:
            block_failed.update((name, bad[rows]) for name, bad in failed.items())
            room = _record_failures(
                fixtures, max_fixtures, block_failed, st, view, lo, sample
            )
    if energy_mins:
        margins["min_energy_margin"] = float(np.min(energy_mins))
        margins["max_flux_quadratic_margin"] = float(np.max(flux_maxes))
    return out
