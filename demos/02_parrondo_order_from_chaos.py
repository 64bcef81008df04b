"""Order from chaos: alternating two chaotic coins into a periodic walk.

The coins A and B below are individually chaotic on their cycles, yet the
deterministic alternation AABB AABB ... revives the walker at t = 20 on
both the 4-cycle and the 3-cycle.  This prints the probability of finding
the walker back at its starting node after each step and writes SVG plots
next to this script.
"""

from pathlib import Path

from cyclewalk import default_coins, evolve, initial_state, parrondo_schedule, return_probability
from cyclewalk.experiments import svg_line_chart

STEPS = 25


def curve(cycle: int, pattern: str) -> list[float]:
    sched = parrondo_schedule(pattern, default_coins(cycle), STEPS)
    trajectory = evolve(initial_state(0, 0, cycle), sched, cycle)
    return [return_probability(state, cycle) for state in trajectory]


def spark(values: list[float]) -> str:
    blocks = " .:-=+*#%@"
    return "".join(blocks[min(int(v * (len(blocks) - 1)), len(blocks) - 1)] for v in values)


def main() -> None:
    out = Path(__file__).resolve().parent
    for cycle in (4, 3):
        print(f"--- {cycle}-cycle ---")
        series = {}
        for pattern in ("A", "B", "AABB"):
            values = curve(cycle, pattern)
            series[pattern if len(pattern) > 1 else pattern * 4] = (
                [float(t) for t in range(1, STEPS + 1)],
                values,
            )
            peak = max(values)
            peak_t = values.index(peak) + 1
            print(f"{pattern * (4 // len(pattern)):>4s}  t=1..25 |{spark(values)}| "
                  f"peak {peak:.6f} at t={peak_t}")
        path = out / f"parrondo_{cycle}cycle.svg"
        path.write_text(svg_line_chart(series, "return probability"))
        print(f"wrote {path.name}")
        print()
    print("AABB peaks at exactly 1 when t = 20; neither pure sequence ever")
    print("passes 0.999.  That is the ordered walk built from chaotic parts.")


if __name__ == "__main__":
    main()
