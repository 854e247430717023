"""Monte Carlo variance of the zero count in an annulus against the exact
degree-infinity limit, computed three independent ways."""
import time

from opucz.mc import coeff_model, run_ensemble
from opucz.opuc import alpha_family
from opucz.varlim import var_limit_closed, var_limit_quadrature, \
    var_limit_series
from opucz.zerocount import Region

s, t = 0.3, 0.6
print(f"annulus {s} < |z| < {t}")
print(f"  closed form  {var_limit_closed(s, t).value:.12f}")
print(f"  series       {var_limit_series(s, t).value:.12f}")
print(f"  quadrature   {var_limit_quadrature(s, t).value:.12f}")

basis = alpha_family("zero").build(100)
t0 = time.perf_counter()
stats = run_ensemble(basis, coeff_model("gaussian"), Region.annulus(s, t),
                     trials=800, seed=42, workers=1)
print(f"\n800 degree-100 trials in {time.perf_counter() - t0:.1f}s")
print(f"  sample variance {stats.variance:.4f}  (se {stats.se_var:.4f})")
print(f"  sample mean     {stats.mean:.4f}")
print(f"  audited {stats.audited}, audit flagged {stats.audit_flagged}, "
      f"excluded {stats.excluded}")

# exterior regions work the same way; the limit is invariant under
# (s, t) -> (1/t, 1/s)
print(f"\nexterior 1.5 < |z| < 2.0: "
      f"limit {var_limit_closed(1.5, 2.0).value:.10f}")
print(f"mirror  0.5 < |z| < 2/3: "
      f"limit {var_limit_closed(1 / 2.0, 1 / 1.5).value:.10f}")
