"""Command-line stand-in for ``raschdesign.optimizer.find_transition``.

The toolkit has no subcommand for the transition search, so this script
plays one: it bisects the exchangeable path mu_i = lambda for the value
where the optimal design stops being the corner design, and writes the
result as JSON.

    PYTHONPATH=src python3 perfbench/transition.py --k 2 --d 1 \
        --lo 0.3 --hi 0.5 --tol 1e-4 --out transition.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--lo", type=float, required=True)
    parser.add_argument("--hi", type=float, required=True)
    parser.add_argument("--tol", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # Looked up through the module at call time, so wrappers installed on
    # ``optimizer.find_transition`` see the call.
    from raschdesign import optimizer
    from raschdesign.model import InteractionModel, ParameterVector

    m = InteractionModel(args.k, args.d)
    found = optimizer.find_transition(
        lambda lam: ParameterVector.symmetric(m, lam),
        m,
        lambda result: result.structure is optimizer.DesignStructure.CORNER,
        bracket=(args.lo, args.hi),
        tol=args.tol,
    )
    payload = {"k": args.k, "d": args.d, "bracket": [args.lo, args.hi],
               "tol": args.tol, "transition": found}
    Path(args.out).write_text(json.dumps(payload) + "\n")
    print(f"transition={found!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
