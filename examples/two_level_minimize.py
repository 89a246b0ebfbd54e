"""Two-level minimization: espresso-lite vs. the exact oracle.

The espresso-style minimizer is the substrate behind ``simplify`` and
the espresso-with-don't-cares division baseline.  This walkthrough
parses a small cover, minimizes it heuristically and exactly, and shows
the effect of a don't-care set — the mechanism the paper's intro
describes for forcing a divisor literal into a cover.

Run:  python examples/two_level_minimize.py
"""

from repro.twolevel import Cover, Cube, espresso
from repro.twolevel.minimize import minimize_exact_small


def main() -> None:
    names = ["a", "b", "c", "d"]
    f = Cover.parse("ab + ac + ab'd' + a'b'c'd", names)
    print(f"f = {f.to_str(names)}")
    print(f"  {f.num_cubes()} cubes, {f.num_literals()} literals (SOP)")

    heuristic = espresso(f)
    print(f"\nespresso-lite: {heuristic.to_str(names)}")
    print(
        f"  {heuristic.num_cubes()} cubes, "
        f"{heuristic.num_literals()} literals"
    )

    exact = minimize_exact_small(f)
    print(f"exact minimum: {exact.to_str(names)}")
    print(f"  {exact.num_cubes()} cubes (provably minimum cube count)")
    assert heuristic.num_cubes() >= exact.num_cubes()
    assert heuristic.equivalent(f)

    # Don't cares: declare the a'b'c' subspace unused and re-minimize.
    dc = Cover(4, [Cube.parse("a'b'c'", names)])
    with_dc = espresso(f, dc)
    print(f"\nwith DC set {dc.to_str(names)}: {with_dc.to_str(names)}")
    print(
        f"  {with_dc.num_cubes()} cubes, "
        f"{with_dc.num_literals()} literals"
    )


if __name__ == "__main__":
    main()
