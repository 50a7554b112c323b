"""Why an optimal pump period exists, and where it sits.

Too fast and the cycle is diabatic; too slow and the wavepacket
disperses while it waits, because the instantaneous bands are not flat.
The tradeoff puts the best period at a fraction of 2*pi divided by the
maximum band width: the optimum scales as 1 / width, but the measured
prefactor is 0.25-0.29 on N = 15 (README, acceptance 3) and about 0.38
on this N = 5 chain (2.36 us against 6.29 us), so the printed 2*pi/width
is a scale, not the optimum itself. The control-freak schedule keeps
the chain fully dimerized (flat bands, zero width) at all times, so it
has no such optimum: its efficiency just grows with the period.
"""

import pathlib

import numpy as np

from ricemele import ChainSpec, PumpProtocol
from ricemele.model import TWO_PI
from ricemele.spectrum import (
    efficiency_vs_period,
    max_band_width,
    predict_optimal_period,
    smooth_moving_average,
)


def main():
    chain = ChainSpec(5)
    template = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 2)
    periods = np.linspace(0.1, 6.0, 48)

    curves = {}
    for kind in ("experimental", "control_freak"):
        protocol = PumpProtocol(kind, template.j_max, template.delta0, 0.0, 1.0, 2)
        curves[kind] = efficiency_vs_period(chain, protocol, periods, dt_per_cycle=1024)

    # average away the fast delta0 oscillation before comparing shapes
    window = TWO_PI / template.delta0
    smoothed = {k: smooth_moving_average(periods, v, window) for k, v in curves.items()}

    t_pred = predict_optimal_period(template)
    width = max_band_width(template)
    print(f"max band width along the cycle: {width / TWO_PI:.3f} MHz")
    print(f"predicted optimum 2*pi/width:   {t_pred:.2f} us")

    best = periods[int(np.argmax(smoothed["experimental"]))]
    print(f"measured optimum (smoothed):    {best:.2f} us\n")

    print(" period   experimental  control_freak")
    for i, period in enumerate(periods):
        marker = " <- optimum" if period == best else ""
        print(f"  {period:5.2f}   {smoothed['experimental'][i]:11.3f}"
              f"  {smoothed['control_freak'][i]:13.3f}{marker}")

    out = pathlib.Path("demo_out")
    out.mkdir(exist_ok=True)
    path = out / "optimal_period.csv"
    np.savetxt(
        path,
        np.column_stack([periods, curves["experimental"], curves["control_freak"]]),
        delimiter=",",
        header="period_us,eff_experimental,eff_control_freak",
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
