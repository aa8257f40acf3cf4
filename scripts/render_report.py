"""Print the canonical report of one experiment config, with every check it names.

    python scripts/render_report.py CONFIG_JSON

The ``findist`` command runs one check per call; this runs all of a
config's ``checks`` (say ``stats``, ``verify``, ``reduce`` and ``prune``)
through ``findist.run`` and prints ``Report.render()``.  The exit code is 0
when every finding passed and 1 otherwise.
"""

import json
import sys

from findist import ExperimentConfig, run

if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        report = run(ExperimentConfig.from_json(json.load(fh)))
    sys.stdout.write(report.render() + "\n")
    raise SystemExit(0 if report.passed() else 1)
