"""Print the seconds this fresh process takes to import the CLI and build
the field and M of each ``p:n`` argument (the benchmark's setup_s)."""

import sys
from time import perf_counter

t0 = perf_counter()
import quditqkd.cli  # noqa: E402,F401
from quditqkd.fields import make_field  # noqa: E402
from quditqkd.toperator import choose_M, find_char_poly  # noqa: E402

for arg in sys.argv[1:]:
    p, n = map(int, arg.split(":"))
    gf = make_field(p, n)
    choose_M(gf, find_char_poly(gf))
print(repr(perf_counter() - t0))
