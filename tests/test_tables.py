import csv
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from immwind.imm import MU_FLOOR
from immwind.tables import write_numbers

# GridCpSurface.to_csv's first header cell is empty, and the rest are floats
HEADER = ["", "t", "mu1", 2.5, 7]

# st.floats() draws nan, the infinities, -0.0 and subnormals as well
number_rows = st.lists(st.lists(st.floats() | st.integers(), max_size=12), max_size=20)


def _csv_writer_bytes(path, header, rows) -> bytes:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=number_rows)
@example(rows=[[math.nan]])
@example(rows=[[math.inf]])
@example(rows=[[-math.inf]])
@example(rows=[[-0.0]])
@example(rows=[[5e-324]])  # the smallest subnormal
@example(rows=[[MU_FLOOR]])
@example(rows=[[1e16]])  # repr switches to exponent form
@example(rows=[[1e22]])
@example(rows=[[-(10**30), 2**63]])
def test_same_bytes_as_csv_writer(tmp_path, rows):
    want = _csv_writer_bytes(tmp_path / "want.csv", HEADER, rows)
    write_numbers(tmp_path / "got.csv", HEADER, iter(rows))
    assert (tmp_path / "got.csv").read_bytes() == want

