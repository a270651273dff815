"""Data dumps: persist and restore a loaded database (Fig. 1, "Data Dumps").

OLTP-Bench ships pre-generated data dumps so experiments skip the loader.
This module serialises a :class:`Database`'s schema and committed rows to a
single JSON file and restores it into a fresh instance — typically 5-20x
faster than re-running a benchmark loader, and exactly reproducible.

    dump_database(db, "tpcc_sf2.dump.json")
    db2 = restore_database("tpcc_sf2.dump.json")

Only committed latest versions are dumped; in-flight transactions and
version history are not (a dump is a clean snapshot, like the original's
SQL dumps).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from ..errors import DataError
from .catalog import ColumnDef, IndexDef, TableSchema
from .database import Database
from .types import SqlType

FORMAT_VERSION = 1


def dump_database(db: Database, path: str | Path) -> dict:
    """Write ``db``'s schema and committed data to ``path``.

    Returns a manifest dict (table -> row count) for logging.
    """
    manifest: dict[str, int] = {}
    payload: dict[str, object] = {
        "format": FORMAT_VERSION,
        "name": db.name,
        "tables": [],
    }
    with db.latch:
        for table_name in db.table_names():
            schema = db.catalog.get(table_name)
            data = db.table_data(table_name)
            rows = [list(values) for values in data.latest_rows()]
            payload["tables"].append({
                "name": table_name,
                "columns": [
                    {
                        "name": column.name,
                        "type": column.sql_type.name,
                        "args": list(column.sql_type.args),
                        "not_null": column.not_null,
                        "default": column.default,
                        "has_default": column.has_default,
                    }
                    for column in schema.columns
                ],
                "primary_key": list(schema.primary_key),
                "indexes": [
                    {"name": index.name, "columns": list(index.columns),
                     "unique": index.unique}
                    for index in schema.indexes.values()
                ],
                "rows": rows,
            })
            manifest[table_name] = len(rows)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return manifest


def restore_database(path: str | Path,
                     into: Optional[Database] = None) -> Database:
    """Rebuild a database from a dump file; returns the instance."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != FORMAT_VERSION:
        raise DataError(
            f"unsupported dump format {payload.get('format')!r}")
    db = into or Database(payload.get("name", "restored"))
    for table in payload["tables"]:
        columns = tuple(
            ColumnDef(
                name=column["name"],
                sql_type=SqlType(column["type"], tuple(column["args"])),
                not_null=column["not_null"],
                default=column["default"],
                has_default=column["has_default"],
            )
            for column in table["columns"]
        )
        schema = TableSchema(table["name"], columns,
                             tuple(table["primary_key"]))
        db.catalog.create_table(schema)
        from .storage import TableData
        db._tables[table["name"]] = TableData(schema)
        for index in table["indexes"]:
            index_def = IndexDef(index["name"], table["name"],
                                 tuple(index["columns"]), index["unique"])
            db.catalog.add_index(index_def)
            db.table_data(table["name"]).add_index(index_def)
        if table["rows"]:
            db.bulk_insert(table["name"],
                           [tuple(row) for row in table["rows"]])
    return db
