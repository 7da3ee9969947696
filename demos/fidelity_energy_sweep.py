"""How much probe energy does a quantum sensor need?

The single-pixel distinguishability of background and target channels is
set by the fidelity between the corresponding probe output states.  A
vacuum probe (the optimal classical strategy) marks one end of the scale;
an infinitely squeezed entangled probe marks the other.  This script sweeps
the finite-energy probe family between the two and shows how quickly a few
photons of squeezing close the gap, for the thermal-loss and additive-noise
settings studied throughout the library.

Run:  python demos/fidelity_energy_sweep.py
"""

import numpy as np

from qthermal import (
    EnvironmentPair,
    fidelity_choi_inf,
    fidelity_classical,
    fidelity_finite,
)

A_GRID = [0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0]


def sweep(pair: EnvironmentPair, label: str) -> None:
    f_cl = fidelity_classical(pair)
    f_inf = fidelity_choi_inf(pair)
    print(f"\n{label}")
    print(f"  classical (vacuum probe) fidelity : {f_cl:.10f}")
    print(f"  asymptotic entangled-probe limit  : {f_inf:.10f}")
    print("  a = nbar_signal + 1/2 sweep:")
    print("      a      F(a)          gap closed")
    for a, f in zip(A_GRID, fidelity_finite(pair, np.array(A_GRID))):
        closed = (f_cl - f) / (f_cl - f_inf) if f_cl > f_inf else 1.0
        print(f"  {a:7.1f}  {f:.10f}  {100 * closed:6.2f}%")


def main() -> None:
    # a warm scene at ~266 K against a slightly warmer target, nearly lossless
    sweep(
        EnvironmentPair.thermal(0.99, eps_background=18.5, eps_target=20.2),
        "thermal-loss pixels, tau = 0.99, eps = (18.5, 20.2)",
    )
    # lossless but noisy pixels: the regime where entanglement shines
    sweep(
        EnvironmentPair.additive(0.02, 0.01),
        "additive-noise pixels, nu = (0.02, 0.01)",
    )

    e = EnvironmentPair.additive(0.02, 0.01)
    print(
        "\nA fidelity gap this size translates directly into error-probability"
        "\nbounds; see demos/advantage_bounds.py.  Lower fidelity means easier"
        f"\ndiscrimination: F_q = {fidelity_choi_inf(e):.6f} vs"
        f" F_cl = {fidelity_classical(e):.6f} here."
    )

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, axes = plt.subplots(1, 2, figsize=(9, 3.5), sharex=True)
    a_fine = np.linspace(0.5, 100, 200)
    for ax, (pair, title) in zip(
        axes,
        [
            (EnvironmentPair.thermal(0.99, 18.5, 20.2), "thermal loss, tau=0.99"),
            (EnvironmentPair.additive(0.02, 0.01), "additive noise"),
        ],
    ):
        ax.plot(a_fine, fidelity_finite(pair, a_fine), label="finite energy")
        ax.axhline(fidelity_classical(pair), ls=":", color="gray", label="vacuum probe")
        ax.axhline(fidelity_choi_inf(pair), ls="--", color="C3", label="asymptotic")
        ax.set_xscale("log")
        ax.set_xlabel("squeezing parameter a")
        ax.set_title(title)
    axes[0].set_ylabel("output fidelity")
    axes[0].legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("fidelity_energy_sweep.png", dpi=120)
    print("\nwrote fidelity_energy_sweep.png")


if __name__ == "__main__":
    main()
