"""Print the canonical report of one experiment config, with every check it names.

    python scripts/render_report.py CONFIG_JSON

The ``findist`` command runs one check per call; this runs all of a
config's ``checks`` (say ``stats``, ``verify``, ``reduce`` and ``prune``)
through ``findist.run`` and prints ``Report.render()``.  The exit code is 0
when every finding passed and 1 otherwise.  As with ``findist``, a config
that cannot be read or that the run refuses exits 2, with one line on
standard error and nothing on standard output.
"""

import json
import sys

from findist import ExperimentConfig, run
from findist.cli import _MALFORMED, _describe


def main(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(json.load(fh))
    except (OSError, *_MALFORMED) as exc:
        print(f"render_report: bad config {path}: {_describe(exc)}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except (ValueError, KeyError) as exc:
        print(f"render_report: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render() + "\n")
    return 0 if report.passed() else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
