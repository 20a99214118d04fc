import re
import time

import pytest

from tpcalc.algebra import RingError, make_ring, parse_class
from tpcalc.grammar import MAX_DIGITS, parse_sum, render_sum
from tpcalc.oracle import OracleError, parse_poly
from tpcalc.symbolic import parse_expr

_P2 = make_ring([("x", 1, 2)])


PARSERS = pytest.mark.parametrize("parse, error", [
    (lambda text: parse_class(_P2, text), RingError),
    (parse_expr, ValueError),
    (lambda text: parse_poly(text, var="x"), OracleError),
], ids=["class", "expr", "poly"])
# numbers of more than MAX_DIGITS digits, as a literal, a power or a product
HUGE = ["-3^99999999*x", "2^199999999*x", "x - 7/2^99999999", "9^4000*9^4000*x",
        pytest.param("1/" + "0" * 4300 + "1", id="a denominator of 4301 digits"),
        pytest.param("1" * 4301 + "*x", id="a numerator of 4301 digits"),
        pytest.param("x^" + "9" * 4301, id="an exponent of 4301 digits")]


@pytest.mark.parametrize("text", ["", "x +", "x ++ y", "2*", "1/0"] + HUGE)
@PARSERS
def test_malformed_text_raises_the_callers_error(parse, error, text):
    start = time.perf_counter()
    with pytest.raises(error):
        parse(text)
    assert time.perf_counter() - start < 1


@PARSERS
def test_numbers_are_read_up_to_max_digits(parse, error):
    parse("10^4299")
    parse("1/10^4299")
    with pytest.raises(error, match=re.escape("digits in factor '10^4300'")):
        parse("10^4300")


def test_every_coefficient_read_prints():
    assert MAX_DIGITS == 4300  # Python's int-to-str limit
    for text, shown in [("10^4299", "1" + "0" * 4299), ("-1/10^4299", "-1/1" + "0" * 4299)]:
        assert render_sum(parse_sum(text, ValueError)) == shown
