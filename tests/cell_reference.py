"""Per-cell reference for the system's one search path.

``create_sessions``, ``refresh`` and the worker drain all compute their
(user × time-point) cells through one fused multi-cell engine.  The
identity tests compare that path with this reference, which computes
the same cells one at a time: one :meth:`CandidateGenerator.generate`
call per cell, configured by the system's own per-cell generator
factory, written with the store's ordinary bulk writes.  Warm seeds are
read for every cell before anything is written, as both the refresh and
the drain do.

The reference writes into the store of the system it is given, so a
test builds two identical systems — one for the path under test, one
for the reference — and compares their ``contents_digest`` values.
"""

from __future__ import annotations

from repro.core.candidates import search_counter_totals


def reference_create_sessions(system, users) -> None:
    """``create_sessions(users)`` computed one cell at a time (store
    rows only; no sessions are registered)."""
    cfg = system.config
    rows, specs = [], []
    for user in users:
        user_id, x, user_constraints = system._user_spec(user)
        trajectory = system.update_function.trajectory(x, cfg.T)
        constraints = system._join_constraints(user_constraints)
        found = []
        for t in range(len(system.future_models)):
            generator = system._cell_generator(t, constraints)
            found.extend(generator.generate(trajectory[t], time=t))
        rows.append((user_id, trajectory, found))
        specs.append((user_id, x, system._constraint_texts(user_constraints)))
    system.store.store_sessions(
        rows, fingerprints=system.model_fingerprints, specs=specs
    )


def reference_recompute(system, *, warm_start: bool = False):
    """Recompute every ledger-stale cell of ``system.store`` one at a
    time from the persisted session specs.

    Returns ``(cells, candidates_written, search)``: the recomputed
    cells, the upserted row count and the summed search counters.
    """
    store = system.store
    fingerprints = system.model_fingerprints
    cells = store.stale_cells(fingerprints)
    specs = {
        user_id: (profile, texts)
        for user_id, profile, texts in store.load_session_specs()
    }
    seeds = {
        cell: system.store.cell_vectors(*cell) if warm_start else None
        for cell in cells
    }
    rows = []
    stats = []
    for user_id, t in cells:
        profile, texts = specs[user_id]
        trajectory = system.update_function.trajectory(profile, system.config.T)
        warm = seeds[(user_id, t)]
        generator = system._cell_generator(t, system._join_constraints(texts))
        found = generator.generate(trajectory[t], time=t, warm_start=warm)
        stats.append(generator.last_stats_)
        rows.append((user_id, t, found, trajectory[t]))
    written = store.upsert_cells(rows, fingerprints=fingerprints)
    return cells, written, search_counter_totals(stats)
