#
# Concentrating multimode entanglement into a single mode pair.
#
# For an NPT state on N x M modes, the minimal eigenvector z of the
# Hermitian matrix gamma - i*Jtilde is a witness: z^dag (gamma - i*Jtilde) z
# < 0, and its skew products Re(z)^T J Im(z) are bounded away from zero on
# both sides, so the raw eigenvector is used as is.  Building a local
# symplectic basis whose first canonical pair spans (Re z, Im z) on each
# side and discarding every other mode leaves a 1x1 state that inherits the
# witness -- so it is NPT, and two-mode methods finish the job.
#
import numpy as np

from gdistill import (concentrate, find_npt_witness, is_npt, local_scramble,
                      random_npt_cm, standard_form_params)


def main():
    g = local_scramble(random_npt_cm(3, 2, seed=7), seed=7)
    print(f"random NPT state on {g.n_a}x{g.n_b} modes "
          f"(margin {is_npt(g).raw_margin:+.6f})\n")

    w = find_npt_witness(g)
    print("witness:")
    print(f"  quadratic form value : {w.margin:+.6f}")
    print(f"  side skew products   : {w.skew_a:+.6f}, {w.skew_b:+.6f}")
    print("  (both nonzero, so each side yields a canonical basis pair)\n")

    s_a, s_b, g_red = concentrate(g, w)
    print(f"local transforms: S_A is {s_a.entries.shape}, "
          f"S_B is {s_b.entries.shape}")
    print("reduced state (one mode pair):")
    print(g_red.entries.round(6))

    red = is_npt(g_red)
    p = standard_form_params(g_red)
    print(f"\nreduced NPT margin : {red.raw_margin:+.6f}")
    print(f"reduced parameters : n_a = {p.n_a:.6f}, n_b = {p.n_b:.6f}, "
          f"k_x = {p.k_x:.6f}, k_p = {p.k_p:.6f}")

    # support check: the transformed witness lives on the first pair only
    z_hat = np.concatenate([
        np.linalg.solve(s_a.entries, w.z[: 2 * g.n_a]),
        np.linalg.solve(s_b.entries, w.z[2 * g.n_a :]),
    ])
    leak = max(np.abs(z_hat[2 : 2 * g.n_a]).max(initial=0.0),
               np.abs(z_hat[2 * g.n_a + 2 :]).max(initial=0.0))
    print(f"witness support leakage beyond the kept pair: {leak:.2e}")


if __name__ == "__main__":
    main()
