"""Static (one-window) entropy of covers: the three agreeing routes.

H(U|beta) is the atom average of the minimal partition entropies.  The same
number comes out of three different computations: per-atom ordering search
(route A), the glued finer partition through the partition formula (route B),
and the exhaustive minimum over all finer partitions (route C, budget
permitting).  Any disagreement raises instead of returning.
"""

import math

import coverentropy as ce
from coverentropy import families, measures

sys3 = ce.permutation([0, 1, 2])
mu = ce.uniform_cycle_measure(sys3)
U = ce.family_of_points(sys3, [[0, 1], [1, 2]], "cover")
V = ce.family_of_points(sys3, [[0], [1, 2]], "partition")
X = ce.trivial_partition(sys3)

print("counting: N(U|{X}) =", ce.covering_number(U, X),
      " N(U|{a},{bc}) =", ce.covering_number(U, V))

print("\ncover entropy under the uniform measure:")
print("  H(U)       =", ce.cover_entropy(mu, U).nats,
      " (= H(1/3, 2/3) =", math.log(3) - (2 / 3) * math.log(2), ")")
print("  H(U|beta)  =", ce.conditional_cover_entropy(mu, U, V).nats,
      " (each atom fits one element)")
print("  H(U|{X})   =", ce.conditional_cover_entropy(mu, U, X).nats)

# the minimizing finer partition assigns the doubly-covered point b wholly
# to one element: entropy is concave, so splitting the overlap never helps
w = measures.family_weights(mu, U)
print("\nall finer-partition values:")
for fam in ce.ustar_enumerate(U):
    cells = [[i for i in range(3) if m >> i & 1] for m in fam.elements]
    h = ce.shannon([measures.mask_mass(w, m) for m in fam.elements]).nats
    print(f"   {cells}  ->  {h:.6f}")

# a golden-mean instance at window 2
gm = ce.golden_mean()
parry = ce.markov(gm, [[0.6180339887498949, 0.3819660112501051], [1, 0]])
Ug = ce.family_of_words(gm, 2, [["00", "01"], ["01", "10"]], "cover")
bg = ce.cylinder_partition(gm, 1)
Uw, bw = families.align_windows(Ug, bg)
print("\ngolden mean, H(U|1-cylinders) =",
      ce.conditional_cover_entropy(parry, Uw, bw).nats)
