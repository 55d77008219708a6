"""Split a two-scale signal into its components.

The input is 70 cos(pi t / 150) + 30 cos(pi t / 15): a fast cosine riding a
slow one at a tenth of its period. Decomposition should hand back the fast
part as component 1 and leave the slow part in the residue chain.

Run from the repository root:

    python3 demos/01_two_scale_split.py

Writes two_scale_split.svg next to this script.
"""

import os

import numpy as np

from fastimd import decompose, find_extrema, render_svg, two_cosine


def main() -> None:
    signal = two_cosine()
    result = decompose(signal)
    # each component is derived on access: read it once per mode
    imfs = [mode.imf for mode in result.modes]

    print(f"input samples: {len(signal)}, extracted components: {len(result.modes)}")
    for k, (mode, imf) in enumerate(zip(result.modes, imfs), start=1):
        print(
            f"  component {k}: {len(find_extrema(imf))} extrema, "
            f"values [{imf.values.min():.2f}, {imf.values.max():.2f}], "
            f"{mode.iterations} refinement passes"
        )

    fast = 30.0 * np.cos(np.pi * signal.times / 15.0)
    err = np.sqrt(np.mean((imfs[0].values - fast) ** 2))
    print(f"component 1 vs the fast cosine: rmse {err:.3f}")

    total = result.final_residue.values.copy()
    for imf in imfs:
        total += imf.values
    print(f"reconstruction error: {np.max(np.abs(total - signal.values)):.2e}")

    out = os.path.join(os.path.dirname(__file__), "two_scale_split.svg")
    render_svg(
        {
            "input": signal,
            "component 1": imfs[0],
            "residue 1": result.modes[0].residue,
        },
        out,
        title="two-scale split",
    )
    print(f"chart written to {out}")


if __name__ == "__main__":
    main()
