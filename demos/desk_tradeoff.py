"""Optimize the desk-sized network preset and print its exported front.

The preset is a 3-supplier / 2-plant / 3-DC / 8-retailer network over a
7-period horizon with one product.  With one product, cost and delay do not
compete: timing each DC's deliveries to its assigned demand is optimal in both
objectives, so the true Pareto set is a single point.  The front printed here
is therefore how far the search got towards that point.  Its rows trade cost
against delay only among the designs found so far, and a planner should not
read them as a price of punctuality.  The script prints the hypervolume progress
that ``scnopt run`` writes to report.json, then the front as a table.

Run:  python demos/desk_tradeoff.py
"""

from scnopt import EngineConfig, SupplyChainProblem, evolve, front_rows, generate_preset
from scnopt.cli import build_report

instance = generate_preset("desk", seed=0)
print("desk instance:", instance.dimensions, "-> genotype length",
      instance.genotype_length)
print(f"total demand over the horizon: {instance.total_demand:.0f} units")
print()

config = EngineConfig(population_size=100, generations=120, seed=42)
result = evolve(SupplyChainProblem(instance), config)
rows = front_rows(result.archive, instance)

# the run report's records: hypervolume against one fixed corner, so the numbers are comparable
report = build_report(result, config_echo={}, front_path="front.csv", front_size=len(rows), wall_time_s=0.0)
print("generation  evaluations  archive  hypervolume")
for rec in report.records:
    if rec["generation"] % 20 == 0 or rec["generation"] == config.generations:
        print(f"{rec['generation']:10d}  {rec['evaluations']:11d}  {rec['archive_size']:7d}"
              f"  {rec['hypervolume']:.4g}")
print()

print(f"exported front: {len(rows)} rows "
      f"(cost in {instance.currency}, delay in units and demand-days)")
print(f"{'total cost':>12s}  {'delay qty':>10s}  {'delay days':>10s}")
for cost, delay, days in rows:
    print(f"{round(cost):12d}  {delay:10.1f}  {days:10.2f}")

cheapest, fastest = rows[0], rows[-1]
print()
print(f"cheapest design found: {round(cheapest[0])} at {cheapest[1]:.0f} units of delay")
print(f"most punctual found:   {round(fastest[0])} at {fastest[1]:.0f} units of delay")
print(f"among the designs found, paying {round(fastest[0] - cheapest[0])} more buys "
      f"{cheapest[1] - fastest[1]:.0f} fewer delayed units; demand-matched timing would beat both.")
