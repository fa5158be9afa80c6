"""
Connectivity survey of the cycle-free family
============================================

The square-board complexes are homologically connected through the
floor bound mu_n = floor((2n-1)/3) - 2, and their loopless directed
matching relatives through nu_n = floor((2n+1)/3) - 2.  This script
recomputes both statements from scratch for every n a laptop handles
in seconds.
"""

from cyclefree import directed_matching, homology, make_spec, mu_n, mu_nm, omega


def connectivity(c):
    """The largest k with reduced integer homology trivial through degree k.

    An empty complex reports -2, and one whose every reduced group
    vanishes reports infinity.
    """
    if not c.vertices:
        return -2
    res = homology(c).nontrivial()
    return min(res) - 1 if res else float("inf")


def nu_n(n):
    """floor((2n + 1)/3) - 2, the bound for directed matchings."""
    return (2 * n + 1) // 3 - 2


print("n   mu_n   connectivity   first nonzero group")
for n in range(2, 7):
    c = omega(make_spec(n))
    res = homology(c).nontrivial()
    first = min(res) if res else None
    conn = connectivity(c)
    label = f"H_{first} = {res[first]}" if res else "none"
    print(f"{n}   {mu_n(n):4d}   {str(conn):>12s}   {label}")

# The bound is tight in the surveyed range: the first nonzero group
# always sits in degree mu_n + 1.

# Directed matchings ban loops, so cycles need two nodes and the
# connectivity bound gains a third of a step.
print()
print("directed matchings: n, nu_n, connectivity")
for n in range(2, 6):
    c = directed_matching(n)
    print(f"{n}: {nu_n(n):3d}  {connectivity(c)}")

# Free rows (rows outside the distinguished block) relax the cycle
# constraint and push connectivity up to
# mu_nm = min(floor((2n+m)/3) - 2, n - 2).
print()
print("extra rows: n, m, mu_nm, connectivity")
for n in (2, 3, 4):
    for m in (1, 2):
        c = omega(make_spec(n, m))
        print(f"{n}, {m}: {mu_nm(n, m):3d}  {connectivity(c)}")

# With at least as many free rows as distinguished ones the complex
# collapses to a wedge of top-dimensional spheres: homology is free and
# lives in a single degree.
print()
for n, m in [(2, 2), (3, 3), (3, 4)]:
    res = homology(omega(make_spec(n, m)))
    print(f"omega({n}, {m}):", res)
