"""Orbit categories of type A and their polygon model, with SVG output.

Run:  python demos/06_orbit_polygon.py     (writes SVGs next to this file)
"""

import pathlib

from sphtor import MDiagonal, OrbitCategory
from sphtor.render import svg_arc_diagram, svg_polygon_diagram
import sphtor

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

print("=== the category and its diagonals ===")
cat = OrbitCategory(3, 2)
print(f"(n, m) = (3, 2): N = {cat.N}, {len(cat.objects)} indecomposables")
for x in cat.objects:
    print(f"  {cat.to_diagonal(x)}  <->  {x}")

print()
print("=== hom, ext, and middle terms ===")
a = cat.from_diagonal(MDiagonal(1, 6))
b = cat.from_diagonal(MDiagonal(2, 3))
print(f"Ext^1({cat.to_diagonal(b)}, {cat.to_diagonal(a)}) = {cat.ext_dim(b, a)}")
mids = [str(cat.to_diagonal(x)) for x in cat.middle_term(a, b)]
print(f"middle term: {' + '.join(mids)}")

print()
print("=== rigid arcs can acquire extensions in the orbit category ===")
x, y = sphtor.arc(-1, 2, 1), sphtor.arc(-1, 6, 5)
print(f"infinity-gon (w=-1): Ext^1 both ways = "
      f"{sphtor.ext_dim(x, y)}, {sphtor.ext_dim(y, x)}")
o1, o2 = cat.from_diagonal(MDiagonal(1, 2)), cat.from_diagonal(MDiagonal(5, 6))
print(f"hexagon images {{1,2}}, {{5,6}}: Ext^1 = {cat.ext_dim(o1, o2)}")
# they neighbour across the edge 6 -- 1; cut 0 opens the hexagon there and
# hides that contact, cut 1 opens it at 1 -- 2, and the w=-1 kernel sees it
for s in (0, 1):
    la = sphtor.arc(-1, *cat._lift(MDiagonal(1, 2), s))
    lb = sphtor.arc(-1, *cat._lift(MDiagonal(5, 6), s))
    print(f"lifted at cut {s}: {la}, {lb}; Ext^1 both ways = "
          f"{sphtor.ext_dim(la, lb)}, {sphtor.ext_dim(lb, la)}")

print()
print("=== closure and full torsion enumeration ===")
square = OrbitCategory(2, 2)
seed = [MDiagonal(1, 2), MDiagonal(3, 4)]
print("closure of {1,2},{3,4} in the square:",
      sorted(map(str, square.closure_diagonals(seed))))
classes = square.torsion_classes()
print(f"(2,2) has {len(classes)} torsion classes:")
for cls in classes:
    print("  {" + ", ".join(map(str, cls)) + "}")

print()
print("=== pictures ===")
pic = OUT / "hexagon_diagonals.svg"
pic.write_text(svg_polygon_diagram(3, 2, sorted(cat.diagonals)))
print("wrote", pic)
crossing = OUT / "crossing_with_connectors.svg"
crossing.write_text(
    svg_arc_diagram(
        2,
        [sphtor.arc(2, 0, 3), sphtor.arc(2, 1, 4)],
        dashed=[sphtor.arc(2, 0, 4), sphtor.arc(2, 1, 3)],
    )
)
print("wrote", crossing)
