"""Extension closures, fountains, and torsion-class verdicts.

Run:  python demos/04_torsion_pairs.py
"""

from sphtor import (
    DescriptorSet,
    FountainDescriptor,
    FountainSide,
    TooLarge,
    arc,
    extension_closure_oracle,
    is_torsion_class,
    ptolemy_closure,
    symbolic_closure,
)

print("=== closing a finite arc set ===")
seed = [arc(2, 0, 3), arc(2, 1, 4)]
closed = ptolemy_closure(2, seed)
print("seed   :", sorted(map(str, seed)))
print("closure:", sorted(map(str, closed)))
print("extension-route closure agrees:",
      closed == extension_closure_oracle(2, seed))

print()
print("=== the closed set is a torsion class; the seed is not ===")
rep = is_torsion_class(DescriptorSet(2, seed), window=10)
print(f"seed verdict   : {rep.verdict.value}, witness {rep.witness_pair} missing {rep.missing_arc}")
rep = is_torsion_class(DescriptorSet(2, closed), window=10)
print(f"closure verdict: {rep.verdict.value}; perp sample holds {len(rep.perp_sample)} arcs")

print()
print("=== fountains: one-sided on the wrong side fails approximation ===")
left = FountainDescriptor(0, FountainSide.LEFT, -1)
right = FountainDescriptor(0, FountainSide.RIGHT, 1)
for fountains, label in [((left,), "left only"), ((right,), "right only"),
                         ((left, right), "both sides")]:
    ds = DescriptorSet(-1, [], fountains)
    rep = is_torsion_class(ds, window=10)
    print(f"w=-1 {label:>10}: {rep.verdict.value}")

print()
print("=== symbolic closure: exact, or refused ===")
ds = DescriptorSet(2, [arc(2, -4, -1)], [FountainDescriptor(0, FountainSide.LEFT, -2)])
grown = symbolic_closure(ds)
print("an arc and a left fountain gain:", " ".join(map(str, sorted(grown.arcs - ds.arcs))))
ds = DescriptorSet(2, [arc(2, -2, 1)], [FountainDescriptor(0, FountainSide.RIGHT, 2)])
try:
    symbolic_closure(ds)
except TooLarge as exc:
    print("an arc and a right fountain:", exc)

print()
print("=== verdicts check pairs on a bounded window and never close ===")
ds = DescriptorSet(2, [arc(2, -5, 6), arc(2, -1, 6), arc(2, 3, 6)],
                   [FountainDescriptor(4, FountainSide.LEFT, 0)])
rep = is_torsion_class(ds, window=8)
print(f"three arcs and a left fountain: {rep.verdict.value},",
      f"witness {rep.witness_pair} missing {rep.missing_arc}")
