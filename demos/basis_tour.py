"""Build orthonormal circle bases from a few coefficient families and poke
at their growth and regularity diagnostics."""
import numpy as np

from opucz.opuc import WeightSpec, alpha_family, levinson_verblunsky, \
    moments_from_weight, regularity_report, szego_build

for spec in ("zero", "constant:0.5", "decay:1:1"):
    fam = alpha_family(spec)
    basis = fam.build(20)
    rep = regularity_report(basis)
    print(f"== {spec}")
    print(f"   order {basis.order}, kappa_20 = {basis.kappas[-1]:.6g}")
    print(f"   epsilon_1 = {rep.epsilons[0]:.4f}, epsilon_20 = {rep.epsilons[-1]:.4f}")

# the free basis is just the monomials, orthonormal under the flat measure:
# its Gram over equispaced circle nodes is the identity on the nose
basis = alpha_family("zero").build(20)
nodes = np.exp(2j * np.pi * np.arange(256) / 256)
vals = np.array([basis.values_at(z)[0] for z in nodes]).T  # row k: phi_k
gram = vals @ vals.conj().T / nodes.size
print(f"\nfree Gram over 256 flat nodes: max |G - I| = "
      f"{np.max(np.abs(gram - np.eye(21))):.3e}")

# a basis built from a weight is orthonormal under THAT weight, so its
# Gram check carries w(theta) along
w = WeightSpec.generalized_jacobi([np.pi], [1.0])
basis = szego_build(levinson_verblunsky(moments_from_weight(w, 24)), 20)
theta = 2 * np.pi * np.arange(4096) / 4096
nodes = np.exp(1j * theta)
vals = np.array([basis.values_at(z)[0] for z in nodes]).T
wts = w.evaluate(theta)
gram = (vals * wts) @ vals.conj().T / wts.sum()
print("== weight:jacobi:pi:1")
print(f"   order {basis.order}, kappa_20 = {basis.kappas[-1]:.6g}")
print(f"   max |weighted Gram - I| over 4096 nodes: "
      f"{np.max(np.abs(gram - np.eye(21))):.3e}")

# the decay family should look asymptotically free: epsilon_k -> 0
fam = alpha_family("decay:1:1")
for n in (40, 80, 160):
    rep = regularity_report(fam.build(n))
    print(f"decay:1:1  epsilon_{n} = {rep.epsilons[-1]:.3e}")
