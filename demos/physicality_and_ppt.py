#
# Physicality and the partial-transposition test on a few canonical states.
#
# Every state is a correlation matrix gamma (vacuum = identity).  Physical
# means gamma - iJ >= 0, equivalently all symplectic eigenvalues >= 1; the
# verdict is decided as gamma - iJ >= 0 (margin = its smallest eigenvalue)
# and the spectra are reported.  A bipartite state is distillable exactly
# when its partial transpose fails that test (NPT).
#
import numpy as np

from gdistill import (CorrelationMatrix, is_npt, symplectic_eigenvalues,
                      tmss_cm, vacuum, validate_physical)


def describe(name, gamma):
    verdict = validate_physical(gamma)
    print(f"{name}:")
    print(f"  physical            : {verdict.physical} "
          f"(margin {verdict.margin:+.6f})")
    print(f"  symplectic spectrum : {np.round(symplectic_eigenvalues(gamma.entries), 6)}")
    if verdict.physical:
        npt = is_npt(gamma)
        print(f"  NPT (distillable)   : {npt.npt} "
              f"(margin {npt.raw_margin:+.6f}, "
              f"PT spectrum min {npt.min_pt_symplectic_eigenvalue:.6f})")
    print()


def main():
    describe("vacuum (1x1)", vacuum(1, 1))

    nu = 2.0
    thermal = CorrelationMatrix(entries=np.diag([nu, nu, 1.5, 1.5]), partition=(1, 1))
    describe("thermal product, occupations 2.0 and 1.5", thermal)

    describe("two-mode squeezed vacuum, r = 0.5", tmss_cm(0.5))

    # half the vacuum floor: positive definite but not a quantum state
    bad = CorrelationMatrix(entries=0.5 * np.eye(4), partition=(1, 1))
    describe("0.5 * identity (unphysical)", bad)

    # squeezing moves the PT margin towards -1; the state stays physical
    print("PT margin vs squeezing:")
    for r in (0.1, 0.25, 0.5, 1.0, 2.0):
        npt = is_npt(tmss_cm(r))
        print(f"  r = {r:4.2f}: margin {npt.raw_margin:+.6f} "
              f"(exact: exp(-2r) - 1 = {np.exp(-2 * r) - 1:+.6f})")


if __name__ == "__main__":
    main()
