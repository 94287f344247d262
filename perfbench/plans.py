"""Seeded plan generators for the three benchmark workloads.

Every generator is a pure function of the seed and the plan index, so
the same ``--seed`` replays the same inputs; the program under test only
ever receives the generated :class:`~repro.api.RunPlan` objects.

Plans come in *rounds* (:data:`ROUNDS`: plans per round, by workload).
Within a round each grid value (or, for continuous draws, each fifth of
a range) is dealt exactly once from a seeded shuffled deck, so every
round holds the same mix of work and only its order and fine detail
depend on the seed.

* ``design-sweep`` plans hold 17 scenarios drawn from grids around the
  paper's operating point (tunnel oxide 5 nm, GCR 0.6, control oxide
  8 nm), so some scenarios land on it and their paper shape checks apply.
* ``service-cold`` plans hold 8 scenarios whose geometry is drawn from
  continuous ranges and never repeats, so every scenario is new to the
  result store.
* ``service-warm`` resubmits a pool of :data:`WARM_POOL_PLANS` plans of
  32 scenarios, stored during set-up, each pool plan once per
  :data:`WARM_POOL_PLANS` submissions in seeded order.

The known-fault call (:func:`known_fault_scenario`) does not depend on
the seed: ``device-summary`` at 6 or 7 nm tunnel oxide always raises.
"""

from __future__ import annotations

import random

from repro.api import RunPlan, Scenario

#: The paper's figure families (Figures 6-9), passed explicitly so the
#: closed-form check reads every lane's GCR and X_TO from the inputs.
PAPER_GCRS = (0.4, 0.5, 0.6, 0.7)
PAPER_OXIDES_NM = (4.0, 5.0, 6.0, 7.0, 8.0)

#: The paper's operating point. A scenario is *at* it when every override
#: it sets is one of these keys with the value below; only such scenarios
#: must pass the experiment's own paper shape checks. Seeds and sizes are
#: not part of it: ``mem-ftl``'s wear-spread claim, for one, holds for its
#: default seeds but not for every seed.
OPERATING_POINT = {
    "tunnel_oxide_nm": 5.0,
    "gcr": 0.6,
    "control_oxide_nm": 8.0,
    "pulse_duration_s": 1e-4,
    "gcrs": PAPER_GCRS,
    "tunnel_oxides_nm": PAPER_OXIDES_NM,
}

TUNNEL_OXIDES_NM = (4.6, 4.8, 5.0, 5.2, 5.4)
GCRS = (0.5, 0.55, 0.6, 0.65, 0.7)
CONTROL_OXIDES_NM = (8.0, 10.0, 12.0, 14.0, 16.0)
PULSES_S = (5e-5, 7.5e-5, 1e-4, 1.5e-4, 2e-4)

WARM_POOL_PLANS = 4
#: Continuous ``service-cold`` draws are stratified into this many bins.
STRATA = 5
#: Plans per round: the largest deck each workload deals from.
ROUNDS = {
    "design-sweep": len(TUNNEL_OXIDES_NM) * len(GCRS),
    "service-cold": STRATA,
    "service-warm": WARM_POOL_PLANS,
}


def _rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible stream per seed and purpose."""
    return random.Random(f"{seed}/{stream}")


def deal(seed: int, slot: str, index: int, cards: int) -> int:
    """Card of plan ``index`` from a deck reshuffled every ``cards`` plans."""
    round_, position = divmod(index, cards)
    order = list(range(cards))
    _rng(seed, f"deck/{slot}/{round_}").shuffle(order)
    return order[position]


def design_plan(seed: int, index: int) -> RunPlan:
    """Plan ``index`` of the ``design-sweep`` stream: every paper axis."""
    rng = _rng(seed, f"design/{index}")

    def grid(slot: str, values: tuple) -> float:
        return values[deal(seed, slot, index, len(values))]

    def geometry(slot: str) -> dict:
        card = deal(seed, slot, index, len(TUNNEL_OXIDES_NM) * len(GCRS))
        return {
            "tunnel_oxide_nm": TUNNEL_OXIDES_NM[card // len(GCRS)],
            "gcr": GCRS[card % len(GCRS)],
        }

    def seeds(*names: str) -> dict:
        return {name: rng.randrange(1, 10_000) for name in names}

    scenarios = (
        Scenario("fig2", {"control_oxide_nm": grid("fig2a", CONTROL_OXIDES_NM)}),
        Scenario("fig2", {"control_oxide_nm": grid("fig2b", CONTROL_OXIDES_NM)}),
        Scenario("fig4", geometry("fig4")),
        Scenario("fig5", geometry("fig5")),
        Scenario("erase-transient", geometry("erase")),
        Scenario("fig6", {"tunnel_oxide_nm": grid("fig6", TUNNEL_OXIDES_NM), "gcrs": PAPER_GCRS}),
        Scenario("fig7", {"gcr": grid("fig7", GCRS), "tunnel_oxides_nm": PAPER_OXIDES_NM}),
        Scenario("fig8", {"tunnel_oxide_nm": grid("fig8", TUNNEL_OXIDES_NM), "gcrs": PAPER_GCRS}),
        Scenario("fig9", {"gcr": grid("fig9", GCRS), "tunnel_oxides_nm": PAPER_OXIDES_NM}),
        Scenario("abl-wkb", {"tunnel_oxide_nm": grid("wkb", TUNNEL_OXIDES_NM), "n_points": 6}),
        Scenario("abl-temp", {"tunnel_oxide_nm": grid("temp", TUNNEL_OXIDES_NM)}),
        Scenario("rel-silc", {"tunnel_oxide_nm": grid("silc", TUNNEL_OXIDES_NM)}),
        Scenario("device-summary", geometry("summary")),
        Scenario("mem-array", seeds("pattern_seed", "array_seed")),
        Scenario("mem-mlc", seeds("target_seed", "program_seed")),
        Scenario("mem-ftl", {"n_requests": 100, **seeds("workload_seed", "array_seed")}),
        Scenario("rel-endurance", {"pulse_duration_s": grid("endurance", PULSES_S)}),
    )
    return RunPlan(scenarios=scenarios, name=f"design-{index}")


def known_fault_scenario(index: int) -> Scenario:
    """The always-failing ``device-summary`` call made once per plan.

    Alternates 6 and 7 nm by plan index, independent of the seed: with
    programming unsaturated, ``t_sat_s`` is ``None`` and the experiment's
    check detail formats it with ``:.2e``, raising ``TypeError``.
    """
    return Scenario(
        "device-summary", {"tunnel_oxide_nm": 6.0 if index % 2 == 0 else 7.0}
    )


#: ``service-cold`` draws: (experiment id, fixed overrides, drawn ranges).
COLD_SPECS = (
    ("fig2", {}, {"control_oxide_nm": (8.0, 16.0)}),
    ("fig4", {}, {"tunnel_oxide_nm": (4.6, 5.4), "gcr": (0.5, 0.7)}),
    ("erase-transient", {}, {"tunnel_oxide_nm": (4.6, 5.4), "gcr": (0.5, 0.7)}),
    ("fig6", {"gcrs": PAPER_GCRS}, {"tunnel_oxide_nm": (4.6, 5.4)}),
    ("fig9", {"tunnel_oxides_nm": PAPER_OXIDES_NM}, {"gcr": (0.5, 0.7)}),
    ("abl-temp", {}, {"tunnel_oxide_nm": (4.6, 5.4)}),
    ("rel-silc", {}, {"tunnel_oxide_nm": (4.6, 5.4)}),
    ("device-summary", {}, {"tunnel_oxide_nm": (4.8, 5.4), "gcr": (0.5, 0.6)}),
)


class ColdPlans:
    """The ``service-cold`` stream: no scenario repeats within a run."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._seen: "set[tuple]" = set()

    def plan(self, index: int) -> RunPlan:
        """Plan ``index``; every scenario differs from all earlier ones.

        Each drawn value is uniform within a fifth of its range, the
        fifth dealt from a per-round deck.
        """
        rng = _rng(self._seed, f"cold/{index}")
        scenarios = []
        for experiment_id, fixed, ranges in COLD_SPECS:
            while True:
                overrides = dict(fixed)
                for name, (low, high) in ranges.items():
                    stratum = deal(self._seed, f"{experiment_id}/{name}", index, STRATA)
                    fraction = (stratum + rng.random()) / STRATA
                    overrides[name] = round(low + fraction * (high - low), 6)
                key = (experiment_id, tuple(sorted(overrides.items())))
                if key not in self._seen:
                    self._seen.add(key)
                    break
            scenarios.append(Scenario(experiment_id, overrides))
        return RunPlan(scenarios=tuple(scenarios), name=f"cold-{index}")


def warm_pool(seed: int) -> "tuple[RunPlan, ...]":
    """The ``service-warm`` pool: four families of eight sweep points."""
    pool = []
    for index in range(WARM_POOL_PLANS):
        rng = _rng(seed, f"warm/{index}")

        def axis(low: float, high: float) -> "list[float]":
            values: "set[float]" = set()
            while len(values) < 8:
                values.add(round(rng.uniform(low, high), 6))
            return sorted(values)

        pool.append(
            RunPlan(
                scenarios=(
                    Scenario("fig2", sweep={"control_oxide_nm": axis(8.0, 16.0)}),
                    Scenario("fig4", {"gcr": 0.6}, sweep={"tunnel_oxide_nm": axis(4.6, 5.4)}),
                    Scenario(
                        "fig6", {"gcrs": PAPER_GCRS}, sweep={"tunnel_oxide_nm": axis(4.6, 5.4)}
                    ),
                    Scenario(
                        "fig9", {"tunnel_oxides_nm": PAPER_OXIDES_NM}, sweep={"gcr": axis(0.5, 0.7)}
                    ),
                ),
                name=f"warm-{index}",
            )
        )
    return tuple(pool)


def warm_plan(seed: int, pool: "tuple[RunPlan, ...]", index: int) -> RunPlan:
    """Submission ``index``: each pool plan once per pass, in seeded order."""
    return pool[deal(seed, "warm-order", index, len(pool))]
