"""When is an entangled probe provably worth it?

For an m-pixel binary pattern the optimal misclassification probability is
sandwiched between computable bounds.  Quantum advantage is *guaranteed*
once the quantum strategy's upper bound dips below the classical
strategy's lower bound (the minimum guaranteed advantage, MGA, turns
positive).  This script reproduces the two standard views:

  1. the MGA/MPA window against probe number for a 9-pixel image, for a
     thermal-loss and an additive-noise pattern;
  2. the minimum probe copies per pixel needed for guaranteed advantage,
     as a function of transmissivity, showing the divergence near tau ~ 0.95
     that confines provable advantage to the low-loss regime;
  3. how prior knowledge (k-CPF and bounded-k spaces) reshapes the bounds.

Run:  python demos/advantage_bounds.py
"""

import math

import numpy as np

from qthermal import (
    EnvironmentPair,
    ImageSpace,
    bounds,
    fidelity_choi_inf,
    fidelity_classical,
    min_rel_probe_uniform,
)


def mga_window(pair: EnvironmentPair, label: str, M_grid) -> None:
    f_q, f_cl = fidelity_choi_inf(pair), fidelity_classical(pair)
    space = ImageSpace.uniform(9)
    print(f"\n{label}:  F_q={f_q:.6f}  F_cl={f_cl:.6f}")
    print("      M     q_lower     q_upper    cl_lower        MGA        MPA")
    for M in M_grid:
        r = bounds(space, M, f_q, f_cl)
        print(
            f"  {M:5d}  {r.q_lower:10.4g}  {r.q_upper:10.4g}  {r.cl_lower:10.4g}"
            f"  {r.mga:+10.4g}  {r.mpa:+10.4g}"
        )
    Ms = range(1, 100_000)
    hits = np.flatnonzero(bounds(space, Ms, f_q, f_cl).mga > 0)
    first = Ms[hits[0]] if hits.size else None
    print(f"  guaranteed advantage from M = {first} probes per pixel")


def divergence_with_loss() -> None:
    print("\nminimum probe copies per pixel for guaranteed advantage, eps = (18.5, 20.2):")
    print("    tau    Mbar_adv")
    for tau in (0.9999, 0.999, 0.995, 0.99, 0.98, 0.97, 0.96, 0.955, 0.95):
        pair = EnvironmentPair.thermal(tau, 18.5, 20.2)
        mbar = min_rel_probe_uniform(fidelity_choi_inf(pair), fidelity_classical(pair))
        print(f"  {tau:6.4f}    {'diverges' if math.isinf(mbar) else f'{mbar:9.1f}'}")


def prior_knowledge() -> None:
    pair = EnvironmentPair.additive(0.02, 0.01)
    f_q, f_cl = fidelity_choi_inf(pair), fidelity_classical(pair)
    m, M = 9, 30
    print(f"\nimage-space priors at m={m}, M={M} (additive pair):")
    for space, label in [
        (ImageSpace.uniform(m), "uniform (no prior)"),
        (ImageSpace.bcpf(m, [2, 3, 4]), "bounded targets {2,3,4}"),
        (ImageSpace.cpf(m, 3), "exactly 3 targets"),
        (ImageSpace.cpf(m, 1), "exactly 1 target"),
    ]:
        r = bounds(space, M, f_q, f_cl)
        print(
            f"  {label:24s}  q in [{r.q_lower:9.3g}, {r.q_upper:9.3g}]"
            f"  cl_lower {r.cl_lower:9.3g}  MGA {r.mga:+9.3g}"
        )


def main() -> None:
    mga_window(
        EnvironmentPair.additive(0.02, 0.01),
        "additive-noise pattern, m=9, nu=(0.02, 0.01)",
        (1, 10, 20, 39, 60, 110, 200),
    )
    mga_window(
        EnvironmentPair.thermal(0.99, 18.5, 20.2),
        "thermal-loss pattern, m=9, tau=0.99, eps=(18.5, 20.2)",
        (1, 100, 1000, 5000, 10000, 20000),
    )
    divergence_with_loss()
    prior_knowledge()


if __name__ == "__main__":
    main()
