"""
Torsion classes and the spheres that witness them
=================================================

Nonvanishing homology is easiest to trust when an explicit cycle
carries it.  This script builds the package's sphere embeddings,
re-validates them square by square, and tests which ambient complexes
they refuse to bound in.
"""

from cyclefree import (
    delta,
    full_board,
    homology,
    hexagon,
    is_boundary,
    is_cycle,
    make_spec,
    odd_sphere,
    omega,
    two_sphere,
)

# The chessboard complex of the 5 x 5 board has pure 3-torsion in
# degree 2: a cycle that does not bound, though 3 copies of it do.
d5 = delta(full_board(5))
print("H_2 of the 5 x 5 chessboard complex:", homology(d5, degrees=2).group(2))

# Extra free rows can trap torsion inside the cycle-free world as well.
print("H_1 of omega(3 rows + 2 free):", homology(omega(make_spec(3, 2))).group(1))

# A hexagonal circle fits inside the cycle-free complex of the 5-board:
# six off-diagonal squares on rows 1 and 2, with the one edge whose two
# arcs would close a cycle left out.
hx = hexagon()
print("hexagon f-vector:", hx.complex.f_vector())
print("fundamental cycle has", len(hx.fundamental), "edges; boundary zero:",
      is_cycle(hx.fundamental))

# Joining the hexagon with a vertical domino on fresh rows and columns
# gives a 2-sphere, still cycle-free on the same board.
sph = two_sphere()
print("two-sphere homology:", homology(sph.complex))

# The odd spheres are joins of dominoes on the board with one free row.
# The first one is a plain square circle; it is a cycle in the ambient
# cycle-free complex that no 2-chain kills, there or in the full
# chessboard complex of the same board.
xi = odd_sphere(1)
ambient = omega(make_spec(3, 1))
board_complex = delta(make_spec(3, 1).board)
print("odd sphere 1 bounds in omega(3 rows + 1 free):",
      is_boundary(xi.fundamental, ambient))
print("odd sphere 1 bounds in the chessboard complex:",
      is_boundary(xi.fundamental, board_complex))
print("ambient H_1:", homology(ambient).group(1))
