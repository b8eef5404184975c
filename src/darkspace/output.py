"""One file format for every table and JSON document a subcommand writes.

Files are UTF-8 with "\\n" line ends and lead with the run's provenance
dict: a CSV as "# key=value" lines in key order before its header, a JSONL
as a {"provenance": ...} record, a JSON document as its "provenance" key,
indented by 2.  JSON keys are sorted.  A CSV cell is str() of its value, so
a caller that formats a number ("-inf", fixed places) passes the string,
quoted (csv.writer's minimal quoting) only where it holds a comma, a double
quote or a newline.  A table with provenance None has no provenance lines.
"""
import csv
import json
from itertools import chain


def _write(path, lines, rows=()) -> None:
    """The lines, each ended by "\n", then the rows as CSV records."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
        csv.writer(fh, lineterminator="\n").writerows(
            map(str, row) for row in rows)


def write_json(path, provenance: dict, payload: dict) -> None:
    _write(path, [json.dumps({"provenance": provenance, **payload},
                             indent=2, sort_keys=True)])


def write_csv(path, provenance, fields, rows) -> None:
    _write(path, (f"# {key}={provenance[key]}"
                  for key in sorted(provenance or ())), chain([fields], rows))


def write_jsonl(path, provenance, fields, rows) -> None:
    records = (dict(zip(fields, row)) for row in rows)
    if provenance is not None:
        records = chain([{"provenance": provenance}], records)
    _write(path, (json.dumps(record, sort_keys=True) for record in records))
