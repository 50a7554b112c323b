"""Transfer efficiency against the static detuning offset.

A static offset added to the staggered on-site energy slides the pump
trajectory along the delta axis. While the loop still encircles the
gap-closing point the transport survives; beyond |offset| = delta0 the
winding drops to zero and the efficiency collapses. On a 9-site chain
of five cells, the lower band starts in cell 1 and the upper band, which
pumps the other way, in cell 4; each is scored in the cell the pump
moves it to (spectrum.target_cell), two cells on: cell 3 and cell 2.
Neither target is clipped by the chain's ends.
"""

import pathlib

import numpy as np

from ricemele import ChainSpec, EvolutionConfig, PumpProtocol
from ricemele.evolution import evolve, initial_dimer_state, transfer_efficiency
from ricemele.model import TWO_PI
from ricemele.protocols import classify_regime, sample_trajectory
from ricemele.spectrum import target_cell

J_MAX = TWO_PI * 1.5
DELTA0 = TWO_PI * 6.0
PERIOD = 3.0
N_CYCLES = 2
START_CELL = {"lower": 1, "upper": 4}


def efficiency(chain, offset, branch):
    protocol = PumpProtocol("experimental", J_MAX, DELTA0, offset, PERIOD, N_CYCLES)
    start = START_CELL[branch]
    psi0 = initial_dimer_state(chain, sample_trajectory(protocol, 0.0), start, branch)
    config = EvolutionConfig(dt=PERIOD / 2048, store_states=False)
    return transfer_efficiency(evolve(chain, protocol, psi0, config), target_cell(chain, start, branch, N_CYCLES))


def main():
    chain = ChainSpec(9)
    offsets = np.linspace(-1.8 * DELTA0, 1.8 * DELTA0, 37)

    rows = []
    print(" offset/delta0   regime        eff(lower)  eff(upper)")
    for offset in offsets:
        regime = classify_regime(
            PumpProtocol("experimental", J_MAX, DELTA0, float(offset), PERIOD, N_CYCLES)
        )
        lower = efficiency(chain, float(offset), "lower")
        upper = efficiency(chain, float(offset), "upper")
        rows.append((offset / DELTA0, lower, upper))
        print(f"  {offset / DELTA0:+12.2f}   {regime:<12}  {lower:9.3f}  {upper:9.3f}")

    out = pathlib.Path("demo_out")
    out.mkdir(exist_ok=True)
    path = out / "offset_plateau.csv"
    np.savetxt(path, np.array(rows), delimiter=",",
               header="offset_over_delta0,eff_lower,eff_upper")
    print(f"\nwrote {path}")
    print("eff(lower) is the population pumped from cell 1 to cell 3; eff(upper)"
          " is the population the upper band pumps the other way, from cell 4"
          " to cell 2.")


if __name__ == "__main__":
    main()
