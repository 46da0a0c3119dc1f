"""
Digit codes, valuation, and ultrametric distance
================================================

Builds a few base-p digit codes by hand and walks through the distance
they induce: two codes are close when they share a long digit prefix.
"""

from hipan import Ball, ball_contains, code, ultrametric_distance, valuation, vdp_bound

# Three codes over the alphabet {0, 1, 2}, two digits each.  The first
# digit is the coarsest split, the second refines it.
cat = code([0, 0], p=3)
dog = code([0, 1], p=3)
fern = code([1, 0], p=3)

print("cat  =", cat)
print("dog  =", dog)
print("fern =", fern)

# Valuation counts matching leading digits; distance is p^(-valuation).
# cat and dog agree on digit 0 and split at digit 1, so they sit at
# distance 1/3.  cat and fern split immediately: distance 1.
for a, b, label in ((cat, dog, "cat~dog"), (cat, fern, "cat~fern")):
    print(f"{label}: valuation={valuation(a, b)} distance={ultrametric_distance(a, b)}")

# Identical codes are at distance exactly zero.
print("cat~cat :", ultrametric_distance(cat, cat))

# The strong triangle inequality makes every triangle isosceles with the
# long side repeated: d(x,z) never exceeds max(d(x,y), d(y,z)).
d_xy = ultrametric_distance(cat, dog)
d_yz = ultrametric_distance(dog, fern)
d_xz = ultrametric_distance(cat, fern)
print("strong triangle holds:", d_xz <= max(d_xy, d_yz))

# A ball of depth k is the set of codes sharing the first k digits;
# membership is just "valuation at least k", the prefix test that
# ball_contains makes.
mammals = Ball(cat, depth=1)
print("ball radius:", mammals.radius)
print("dog in the depth-1 ball around cat:", valuation(mammals.center, dog) >= mammals.depth)
print("fern in the same ball:", valuation(mammals.center, fern) >= mammals.depth)
print("ball_contains(mammals, dog) :", ball_contains(mammals, dog))
print("ball_contains(mammals, fern):", ball_contains(mammals, fern))

# How many distinct balls exist over all depths 0..K-1 bounds the number
# of basis functions a model over these codes can ever need.
print("basis bound for p=3, K=2:", vdp_bound(3, 2))
