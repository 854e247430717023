"""Root a few random degree-60 combinations, certify every zero against
its coefficients eta, and cross-check region counts against the
contour-integral route."""
import numpy as np

from opucz.mc import coeff_model, sample_poly, trial_seed
from opucz.opuc import alpha_family
from opucz.zerocount import Region, count_by_argument_principle, \
    count_in_region, roots

basis = alpha_family("zero").build(60)
model = coeff_model("gaussian")
disk = Region.annulus(0.0, 0.8)
sector = Region.sector(0.5, 0.0, np.pi / 3)  # wedge of 0.5 < |z| < 2

for t in range(4):
    eta = sample_poly(basis, model, trial_seed(2024, t))
    zs = roots(basis, eta)
    moduli = np.abs(zs.roots)
    print(f"trial {t}: {zs.roots.size} certified roots, "
          f"moduli in [{moduli.min():.3f}, {moduli.max():.3f}], "
          f"worst backward error {zs.residuals.max():.1e}")
    n_root = count_in_region(zs, disk)
    n_arg = count_by_argument_principle(basis, eta, disk)
    print(f"  |z| < 0.8     rootfinder {n_root:2d}   contour integral {n_arg:2d}")
    print(f"  sector pi/3   rootfinder {count_in_region(zs, sector):2d}"
          f"   (about 60/6 = 10 expected)")

    # every root is accounted for by a partition of the plane
    parts = [Region.annulus(0, 0.9), Region.annulus(0.9, 1.1),
             Region.annulus(1.1, 1e9)]
    sizes = [count_in_region(zs, q) for q in parts]
    print(f"  partition [0,.9)+[.9,1.1)+[1.1,inf) = {sizes} -> {sum(sizes)}")
