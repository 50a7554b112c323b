"""First contact with the pump simulator.

Builds a five-site Rice-Mele chain, classifies the default pump cycle,
runs two cycles, and prints how the excitation walks down the chain.
"""

import numpy as np

from ricemele import ChainSpec, EvolutionConfig, PumpProtocol
from ricemele.evolution import evolve, initial_dimer_state, transfer_efficiency
from ricemele.model import TWO_PI
from ricemele.protocols import classify_regime, sample_trajectory, winding_number
from ricemele.spectrum import target_cell


def main():
    chain = ChainSpec(5)
    protocol = PumpProtocol(
        kind="experimental",
        j_max=TWO_PI * 1.5,      # rad/us, peak hopping
        delta0=TWO_PI * 7.0,     # rad/us, staggering amplitude
        delta_offset=0.0,
        period=2.8,              # us per cycle, near the optimum
        n_cycles=2,
    )

    winding, on_boundary = winding_number(protocol)
    print(f"chain: {chain.n_sites} sites grouped as {chain.cells}")
    print(f"pump trajectory winding: {winding} (gap closes on path: {on_boundary})")
    print(f"regime: {classify_regime(protocol)}")

    # start in the lower dimer state of the first cell and integrate
    psi0 = initial_dimer_state(chain, sample_trajectory(protocol, 0.0), 1, "lower")
    record = evolve(chain, protocol, psi0, EvolutionConfig(dt=protocol.period / 2048))

    table = record.cell_population_table()
    print("\ncell populations per half cycle:")
    print("  t/T   " + "  ".join(f"cell {c + 1}" for c in range(chain.n_cells)))
    stride = (len(record.times) - 1) // (2 * protocol.n_cycles)
    for i in range(0, len(record.times), stride):
        row = "  ".join(f"{p:6.3f}" for p in table[i])
        print(f"  {record.times[i] / protocol.period:4.2f}  {row}")

    target = target_cell(chain, 1, "lower", protocol.n_cycles)
    print(f"\ntransfer efficiency into cell {target}, {protocol.n_cycles} cells on: "
          f"{transfer_efficiency(record, target):.3f}")
    print("one cell of transport per cycle is the topological fingerprint;"
          " lower it by shrinking the period and dispersion takes over.")


if __name__ == "__main__":
    main()
