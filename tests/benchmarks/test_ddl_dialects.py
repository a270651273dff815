"""Every benchmark's DDL parses and gives every table a primary key."""

import pytest

from repro.benchmarks import REGISTRY, create_benchmark
from repro.engine import Database
from repro.engine.sqlparser import ast, parse


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_ddl_parses(name):
    bench = create_benchmark(name, Database())
    statements = list(bench.ddl())
    assert statements
    tables = 0
    for sql in statements:
        stmt = parse(sql)
        assert isinstance(stmt, (ast.CreateTable, ast.CreateIndex))
        if isinstance(stmt, ast.CreateTable):
            tables += 1
            assert stmt.columns
    assert tables >= 1


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_table_has_primary_key(name):
    """OLTP workloads address rows by key; every table must declare one."""
    bench = create_benchmark(name, Database())
    for sql in bench.ddl():
        stmt = parse(sql)
        if isinstance(stmt, ast.CreateTable):
            assert stmt.primary_key, f"{name}: {stmt.name} has no PK"
