#
# The full decision pipeline on three kinds of input.
#
# distillable  : NPT state -> witness -> concentrate to 1x1 -> standard
#                form -> symmetrize -> reduction-criterion sweep; the
#                verdict comes with an explicit protocol and witness values.
# separable    : PPT in, NOT_DISTILLABLE out, nothing else runs.
# borderline   : |PT margin| < 1e-7 is reported as INCONCLUSIVE_BOUNDARY
#                rather than pretending the numerics can decide it.
#
from gdistill import (CorrelationMatrix, distill_pipeline, local_scramble,
                      random_npt_cm, tmss_cm)

import numpy as np


def show(name, gamma):
    print(f"--- {name} ---")
    rep = distill_pipeline(gamma)
    print(f"verdict     : {rep.verdict}")
    print(f"NPT margin  : {rep.npt.raw_margin:+.6e}")
    if rep.verdict == "DISTILLABLE":
        p = rep.final_params
        print(f"witness     : form value {rep.witness.margin:+.6f}")
        print(f"symmetrize  : theta = {rep.symmetrization.theta:.6f}, "
              f"residual scale {rep.symmetrization.scale_factor:.6f}")
        print(f"final state : n = {p.n_a:.6f}, k_x = {p.k_x:.6f}, "
              f"k_p = {p.k_p:.6f}")
        print("witness sweep (probe squeezing r -> value):")
        for rc in rep.rc_sweep:
            print(f"  r = {rc.r:g}: {rc.value:+.6e}")
        print(f"asymptotic value: {rep.rc.asymptotic_value:+.6f} (< 0)")
    print()


def main():
    g = local_scramble(random_npt_cm(2, 3, seed=11), seed=11)
    show("random entangled state on 2x3 modes", g)

    thermal = CorrelationMatrix(
        entries=np.diag([2.0, 2.0, 1.4, 1.4, 1.1, 1.1]), partition=(1, 2))
    show("separable thermal product", thermal)

    show("two-mode squeezed vacuum at r = 1e-8", tmss_cm(1e-8))


if __name__ == "__main__":
    main()
