#
# Standard form of a two-mode state.
#
# Local symplectic transformations cannot change entanglement, and every
# 1x1 state is locally equivalent to the four-parameter standard form
#     A = n_a I,  B = n_b I,  C = diag(k_x, k_p).
# The parameters come from the four block-determinant invariants, so they
# can be read off *without* constructing the transformation -- and the
# constructive route must agree.
#
import numpy as np

from gdistill import (check_inseparable, check_physical, det_invariants,
                      direct_sum, local_scramble, standard_form_params,
                      standard_form_transform, tmss_cm)


def main():
    g = tmss_cm(0.5)
    print("two-mode squeezed vacuum, r = 0.5")
    print(g.entries.round(6), "\n")

    scrambled = local_scramble(g, seed=42)
    print("after hiding it with random local symplectics:")
    print(scrambled.entries.round(6), "\n")

    det_a, det_b, det_c, det_g = det_invariants(scrambled)
    print(f"block determinants: det A = {det_a:.6f}, det B = {det_b:.6f}, "
          f"det C = {det_c:.6f}, det gamma = {det_g:.6f}")
    print(f"  (the squeezed pair has cosh^2 = {np.cosh(1.0)**2:.6f}, "
          f"-sinh^2 = {-np.sinh(1.0)**2:.6f}, det = 1)\n")

    p = standard_form_params(scrambled)
    print(f"recovered parameters: n_a = {p.n_a:.9f}, n_b = {p.n_b:.9f}, "
          f"k_x = {p.k_x:.9f}, k_p = {p.k_p:.9f}")
    print(f"physical     : {check_physical(p).physical}")
    print(f"inseparable  : {check_inseparable(p).inseparable} "
          f"(residual {check_inseparable(p).residual:.6f})\n")

    # constructive version: explicit local symplectics to standard form
    sf = standard_form_transform(scrambled)
    S = direct_sum(sf.s_a.entries, sf.s_b.entries)
    err = np.abs(S.T @ scrambled.entries @ S - sf.gamma_std.entries).max()
    print("standard form reached by explicit local transforms:")
    print(sf.gamma_std.entries.round(9))
    print(f"congruence error: {err:.2e}")


if __name__ == "__main__":
    main()
