"""Measure the Rudnev surrogate ratio across the standard F_31 corpus.

Run once, read off the maximum, and freeze it as FROZEN_RUDNEV_CEILING in
findist/harness.py.  Rerunning must reproduce the same table exactly; a new
maximum above the frozen value is a regression in the reduction pipeline.
"""

import sys
import time
from fractions import Fraction

from findist import counting, incidence
from findist.harness import standard_corpus_sets


def main() -> int:
    worst = Fraction(0)
    worst_label = "-"
    print(f"{'label':<16} {'n':>3} {'r':>3} {'|S_r|':>5} {'I':>7} {'surrogate':>12} {'float':>8} {'lifted':>6}")
    for label, A in standard_corpus_sets():
        started = time.monotonic()
        r_star = counting.segment_classes(A).largest()
        if r_star is None:
            print(f"{label:<16} {len(A):>3}   (no nonzero distance class)")
            continue
        w = incidence.claim_reduction(A, r_star)
        ratio = w.ratio()
        if w.verdict != "explained":
            print(f"UNEXPLAINED reduction on {label}", file=sys.stderr)
            return 1
        s = ratio.surrogate_ratio
        if s > worst:
            worst, worst_label = s, label
        print(
            f"{label:<16} {len(A):>3} {r_star.index:>3} {w.max_class_size:>5} {w.incidences:>7}"
            f" {str(s):>12} {float(s):>8.4f} {str(w.lifted):>6}"
            f"   [{time.monotonic() - started:.1f}s]"
        )
    print(f"\nmaximum surrogate ratio: {worst} = {float(worst):.6f}  ({worst_label})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
