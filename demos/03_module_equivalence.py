"""Walkthrough: twisted sets as recombined standard prolongations.

A twisted set spans the same module as standard prolongations of different
base fields; the transformation matrix A on the base and the twist are tied
by a transport equation.  Both index conventions appear in practice:

    inverse_dx:  sigma = A^-1 (D_x A)   (standard generators = A . twisted)
    dx_inverse:  sigma = A (D_x A^-1)   (twisted = A . standard generators)

The twist changes like a gauge field under a change of module generators, and
a component-matrix bridge links the set-index twist to the dependent-index
one.
"""

from jetsigma import gallery
from jetsigma.equivalence import (
    gauge_transform_sigma,
    mu_sigma_bridge,
    sigma_from_A,
    standardizing_roundtrip,
    verify_A_sigma,
)
from jetsigma.jets import JetContext
from jetsigma.linalg import ExprMatrix
from jetsigma.prolong import SigmaMatrix

print("-- non-uniqueness of the transport equation --")
quot = gallery.identity_twist_quotient()
for name in ("A", "B"):
    ok = verify_A_sigma(quot.matrices[name], quot.sigma, quot.ctx).holds
    print(f"   D_x {name} = {name} sigma holds:", ok)

print("\n-- bilinear mixing (inverse_dx convention) --")
bil = gallery.bilinear_mixing()
sigma = sigma_from_A(bil.matrices["A"], bil.ctx, "inverse_dx")
print("   induced twist:", sigma)
rt = standardizing_roundtrip(bil.fields, bil.matrices["A"], 1, "inverse_dx", deny=bil.deny)
print("   roundtrip (combine standard prolongations == twist-prolong combined fields):", rt.check.holds)

print("\n-- radially scaled fields with an opaque profile (dx_inverse) --")
for maker in (gallery.radial_quotient, gallery.radial_polynomial):
    case = maker()
    rt = standardizing_roundtrip(case.fields, case.matrices["A"], 1, "dx_inverse", deny=case.deny)
    induced = sigma_from_A(case.matrices["A"], case.ctx, "dx_inverse")
    match = all(
        (induced[i, j] - case.sigma[i, j]).sym == 0 for i in range(2) for j in range(2)
    )
    print(f"   {case.name}: roundtrip {rt.check.holds}, induced twist matches {match}")

print("\n-- gauge behaviour of the twist --")
ctx = bil.ctx
B = bil.matrices["A"]
gauged = gauge_transform_sigma(B, SigmaMatrix.zero(ctx, 2), ctx)
print("   gauging the zero twist reproduces the dx_inverse-induced twist:",
      all((gauged[i, j] - sigma_from_A(B, ctx, "dx_inverse")[i, j]).sym == 0
          for i in range(2) for j in range(2)))

print("\n-- bridging the set-index and dependent-index twists --")
ctx2 = JetContext("x", ["u", "v"], 1)
P = ctx2.parse
Phi = ExprMatrix([[P("u"), P("0")], [P("0"), P("v")]])
S = ExprMatrix([[P("u"), P("0")], [P("0"), P("u + v")]])
out = mu_sigma_bridge(Phi, ctx2, S=S)
print("   dependent-index matrix M =", out.M)
print("   twists agree on the first jet bundle:", out.lift.holds)
