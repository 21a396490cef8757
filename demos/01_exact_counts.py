#!/usr/bin/env python3
"""Exact counting demo.

Builds the coefficient table of the zonotope generating function on small
boxes, reads off exact counts, and cross-checks them against the independent
brute-force multiset enumeration.
"""

from fractions import Fraction

import zonocount as zc

print("== exact counts in [0,n]^2 ==")
table = zc.build_table(2, (6, 6))
print("n      z_2(n)   cumulative")
for n in range(7):
    print(f"{n}   {table.coefficient((n, n)):>8}   {table.total((n, n)):>10}")

print()
print("== the same table answers every smaller box ==")
for box in ((1, 1), (2, 2), (3, 5), (6, 2)):
    print(f"z_2{box} = {table.coefficient(box)}")

print()
print("== brute-force oracle agreement (independent DFS enumeration) ==")
for box in ((2, 2), (4, 3), (5, 5)):
    res = zc.brute_force_count(2, box)
    dp = table.coefficient(box)
    tag = "ok" if res.count == dp else "MISMATCH"
    print(f"box {box}: brute {res.count}, table {dp}  [{tag}] "
          f"({res.nodes} nodes)")

print()
print("== exact first moments at box n*1 ==")
print("n   mean #generators (= graph diameter)")
for n in range(1, 7):
    mu = zc.diameter_moment(2, n)
    print(f"{n}   {mu}  ~ {float(mu):.4f}")

mean, var = zc.occurrence_moments(2, 4, (1, 1))
print(f"\nmultiplicity of one (1,1) sign class at n=4: mean {mean}, variance {var}")
assert mean == Fraction(*mean.as_integer_ratio())

print()
print("== three dimensions ==")
table3 = zc.build_table(3, (3, 3, 3))
for n in range(4):
    print(f"z_3({n}) = {table3.coefficient((n, n, n))}")
