"""Walk a genotype through the supply chain decoder, one stage at a time.

The hand-checkable fixture (1 supplier, 1 plant, 1 DC, 1 retailer, 2 periods)
is small enough to verify every number in your head: opening the whole chain
and shipping the 10 demanded units costs

    100 (plant) + 50 (DC) + 3*10 (raw) + 3*10 (plant->DC) + 1*10 (DC->retail)
    = 220

and the delivery schedule alone decides the delay objective.

Run:  python demos/decode_walkthrough.py
"""

import numpy as np

from scnopt import CONSTRAINT_FAMILIES, GenotypeLayout, decode, evaluate, tiny_instance

instance = tiny_instance()
layout = GenotypeLayout.for_instance(instance)

print("instance dimensions (S, K, J, I, P, T):", instance.dimensions)
print("genotype length:", layout.length)
print("segments:")
for name in ("plant_keys", "dc_keys", "supplier_weights",
             "plant_dc_weights", "assignment_keys", "timing_weights"):
    print(f"  {name:18s} -> genes {getattr(layout, name)}")
print()

# --- a just-in-time design: everything open, inbound timing matching demand
jit = np.ones(layout.length)
network = decode(jit, instance)

print("decoded all-ones genotype:")
print("  plants open:   ", network.plant_open)
print("  DCs open:      ", network.dc_open)
print("  raw flow (S,K):", network.raw_flow.ravel())
print("  plant->DC flow:", network.product_flow.ravel())
print("  DC->retail flow:", network.retail_flow.ravel())
print("  inbound per period:", network.inflow.ravel())
print("  on-hand stock:  ", network.on_hand.ravel())
print("  backlog:        ", network.backlog.ravel())

(cost, delay), violation = evaluate(jit, instance)
print("  scored constraint families:", ", ".join(CONSTRAINT_FAMILIES))
print(f"  objectives: cost={cost}, delay={delay}; violation={violation}")
print()

# --- timing is the whole story for the delay objective on this fixture:
# holding cost is zero, so cost stays 220 while delay moves with the schedule
print("timing sweep (first-period share of the DC's inbound units):")
print("  share   inflow        on-hand    backlog    cost   delay")
for early_share in (1.0, 0.75, 0.5, 0.25, 0.0):
    g = jit.copy()
    g[layout.timing_weights] = (early_share, 1.0 - early_share)
    network = decode(g, instance)
    (cost, delay), _ = evaluate(g, instance)
    print(f"  {early_share:.2f}    {network.inflow.ravel()}"
          f"    {network.on_hand.ravel()}"
          f"   {network.backlog.ravel()}"
          f"   {cost:.0f}"
          f"    {delay:.1f}")

print()
print("shipping everything in period 1 (or period 2) moves 5 units of")
print("delay; the 50/50 schedule matches the 5+5 demand and scores zero.")
