"""Domain specs each workload parses at set-up, and the fresh-process set-up probe.

Set-up is ``import poisskern`` plus parsing the workload's domain specs (which
constructs the domains).  The ``cli`` workload's set-up is a bare import, since
every CLI invocation pays exactly that.  This module imports only the standard
library so that nothing is loaded before the timed import.

Probe usage (prints the set-up time in seconds)::

    python perfbench/specs.py SRC_DIR WORKLOAD
"""

from __future__ import annotations

import sys
import time

DISC = '{"kind": "ball", "dim": 2}'
BALL3 = '{"kind": "ball", "dim": 3}'
HALFPLANE = '{"kind": "halfspace", "dim": 2}'
HALFSPACE3 = '{"kind": "halfspace", "dim": 3}'
ELLIPSE = '{"kind": "ellipse", "semi_axes": [2.0, 1.0]}'
# The README's implicit polynomial: the ellipse x^2/4 + y^2 - 1 < 0.
IMPLICIT_ELLIPSE = (
    '{"kind": "implicit_polynomial", "dim": 2, '
    '"coefficients": {"2,0": 0.25, "0,2": 1.0, "0,0": -1.0}, '
    '"bounding_box": [[-2.5, -1.5], [2.5, 1.5]], "interior_point": [0.0, 0.0]}'
)

SPECS = {
    "wos": {"disc": DISC, "ball3": BALL3, "halfplane": HALFPLANE, "ellipse": ELLIPSE,
            "implicit": IMPLICIT_ELLIPSE},
    "closed_form": {"disc": DISC, "ball3": BALL3, "halfplane": HALFPLANE,
                    "halfspace3": HALFSPACE3, "ellipse": ELLIPSE},
    "cli": {},
}

# Files the cli workload writes for ``--domain``.
CLI_SPEC_FILES = {"disc.json": DISC, "halfplane.json": HALFPLANE}


def set_up(workload: str):
    """Import poisskern and build the workload's domains; returns ``(module, domains)``."""
    import poisskern

    domains = {name: poisskern.parse_domain_spec(text) for name, text in SPECS[workload].items()}
    return poisskern, domains


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    set_up(sys.argv[2])
    print(repr(time.perf_counter() - t0))
