"""Difference tables between the two lower bounds at m = 2.

For the complex and quaternionic projective lines the convolution bound
starts to beat the classical LP bound as the cubature index p grows; this
script prints the full difference tables and the oscillation pattern of
their discrete derivatives.
"""

from projbound import Field, oscillation_report, yudin_bound

print("Complex line, delta_C(p) = rounded convolution bound - LP bound")
print(f"{'p':>4} {'lp':>6} {'raw':>14} {'rounded':>8} {'delta':>6}")
for p in range(2, 91, 2):
    rep = yudin_bound(Field.C, 2, p)
    print(f"{p:>4} {rep.lp_bound:>6} {rep.yudin_raw:>14.6f} {rep.yudin_bound:>8} {rep.delta:>6}")

print()
print("Quaternionic line, delta_H(p)")
print(f"{'p':>4} {'lp':>6} {'raw':>14} {'rounded':>8} {'delta':>6}")
for p in range(2, 51, 2):
    rep = yudin_bound(Field.H, 2, p)
    print(f"{p:>4} {rep.lp_bound:>6} {rep.yudin_raw:>14.6f} {rep.yudin_bound:>8} {rep.delta:>6}")

print()
print("Second differences of delta_H alternate in sign; first differences")
print("of delta_C grow only as a slow trend:")
rep = oscillation_report(50)
for row in rep.h_rows:
    if row.d2 is not None:
        mark = "ok" if row.d2_sign_match else "--"
        print(f"  p={row.p:>2}  delta={row.delta:>4}  d1={row.d1:>4}  d2={row.d2:>4}  [{mark}]")
