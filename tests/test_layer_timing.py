import os

import layer_timing
from _support import blas_setting

# rows per degree of each section whose rows follow --degrees: the rule's and
# the probe rings' tables, one dense matrix, `analyze`, `evaluate_grid` and
# `penalized_functional`, the product and the rotated exactness check, one
# norms row, one walk, one accuracy row
ROWS = {
    "tables": 2, "dense": 1, "transforms": 3, "exactness": 2, "norms": 1, "walk": 1, "accuracy": 1,
}


def test_each_section_prints_its_table_at_degree_2(capsys):
    layer_timing.main([*ROWS, "--degrees", "2"])
    blas, *tables = capsys.readouterr().out.strip().split("\n\n")
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    assert blas == blas_setting() == f"OPENBLAS_NUM_THREADS {threads}, os.cpu_count() {os.cpu_count()}"
    assert len(tables) == len(ROWS)
    for (name, rows), table in zip(ROWS.items(), tables):
        header, rule, *body = table.splitlines()
        columns = header.count("|") - 1
        assert header.startswith("| degree M | ") and columns >= 4, name
        assert rule == "| " + " | ".join(["---"] * columns) + " |", name
        assert len(body) == rows, name
        for line in body:
            assert line.startswith("| 2 | ") and line.count("|") == columns + 1, name
