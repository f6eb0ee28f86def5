#!/usr/bin/env python3
"""Figure 6 style experiment: Muller-pipeline scaling.

Synthesises Muller pipelines of increasing depth with the unfolding-based
method and the two SG-based baselines, and prints a table of times and
state-space sizes showing the SG explosion versus the linear growth of the
unfolding segment.  The unfolding method runs on every row.  Pass a list of
stage counts on the command line to change the sweep, e.g.
``python examples/muller_pipeline_scaling.py 2 4 6``.

State-space engine choice
-------------------------
The two baselines share one synthesis code path and differ only in the
``repro.spaces`` backend answering the state-space queries:

* ``sg-explicit`` enumerates every state into the packed State Graph, so
  its cost scales with the *state count* (``O(phi^stages)`` here) -- it is
  cut off once the pipeline grows past ``SG_LIMIT_SIGNALS``;
* ``sg-bdd`` works on a BDD characteristic function and scales with the
  *BDD size*, which stays polynomial on pipeline-shaped specifications --
  it keeps going far past the explicit cut-off (the symbolic column below
  runs to ``BDD_LIMIT_SIGNALS``), while the state count is still reported
  exactly via a symbolic solution count.
"""

import sys
import time

from repro.bdd import SymbolicNet
from repro.stg import muller_pipeline
from repro.synthesis import synthesize
from repro.unfolding import unfold

SG_LIMIT_SIGNALS = 10   # beyond this the explicit baseline takes too long
BDD_LIMIT_SIGNALS = 26  # the symbolic baseline keeps scaling further


def main() -> None:
    stages_list = [int(arg) for arg in sys.argv[1:]] or [2, 4, 6, 8, 12, 16, 20, 24]
    print("stages  signals  states  segment_events  t_unfolding  t_sg_explicit  t_sg_bdd")
    for stages in stages_list:
        stg = muller_pipeline(stages)
        segment = unfold(stg)
        t0 = time.perf_counter()
        synthesize(stg, method="unfolding-approx")
        t_unf = "%.2fs" % (time.perf_counter() - t0)

        states = "-"
        t_sg = t_bdd = "-"
        if stg.num_signals <= SG_LIMIT_SIGNALS:
            t0 = time.perf_counter()
            synthesize(stg, method="sg-explicit")
            t_sg = "%.2f" % (time.perf_counter() - t0)
        if stg.num_signals <= BDD_LIMIT_SIGNALS:
            t0 = time.perf_counter()
            result = synthesize(stg, method="sg-bdd", max_states=None)
            t_bdd = "%.2f" % (time.perf_counter() - t0)
            states = result.num_states  # counted symbolically, not enumerated
        else:
            # Count the states without the full space's well-formedness
            # products: the raw fixed point + one solution count suffice.
            engine = SymbolicNet(stg.net, stg=stg)
            engine.reachable_set()
            states = engine.count_states()
        print("%6d  %7d  %6s  %14d  %11s  %13s  %8s" % (
            stages, stg.num_signals, states, segment.num_events - 1, t_unf, t_sg, t_bdd))


if __name__ == "__main__":
    main()
