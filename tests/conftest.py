import contextlib
import io
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from schottky_limits.cli import main
from schottky_limits.freewords import Word, WordFamily
from schottky_limits.mobius import GroupElement, Interior
from schottky_limits.schottky import default_generators


def invoke(args):
    """Run the CLI in this interpreter on the argument list args, as the
    console script would, and return what a process would have shown:
    exit_code, stdout (and its UTF-8 stdout_bytes), stderr, output (stdout
    then stderr) and exception (the SystemExit of a nonzero exit status, or
    the exception that escaped the command, else None)."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(args), prog_name="schottky-limits")
            exit_code = 0
        except SystemExit as exc:
            code = exc.code
            exit_code = code if isinstance(code, int) else int(code is not None)
            if exit_code:
                exception = exc
        except Exception as exc:
            exit_code, exception = 1, exc
    stdout, stderr = out.getvalue(), err.getvalue()
    return SimpleNamespace(exit_code=exit_code, stdout=stdout, stdout_bytes=stdout.encode(),
                           stderr=stderr, output=stdout + stderr, exception=exception)


@pytest.fixture(scope="session")
def sd():
    return default_generators()


@pytest.fixture(scope="session")
def fam12():
    return WordFamily(max_index=12)


@pytest.fixture(scope="session")
def fam6():
    return WordFamily(max_index=6)


def rationals(max_num=30, max_den=12):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def unit_det_matrices():
    """Random det-1 rational matrices: products of elementary shears."""

    def build(shears):
        g = GroupElement.identity()
        for q, lower in shears:
            if lower:
                h = GroupElement.of(1, 0, q, 1)
            else:
                h = GroupElement.of(1, q, 0, 1)
            g = g * h
        return g

    shear = st.tuples(rationals(max_num=5, max_den=4), st.booleans())
    return st.builds(build, st.lists(shear, min_size=0, max_size=6))


def interior_points():
    return st.builds(
        Interior,
        rationals(max_num=20, max_den=8),
        st.builds(Fraction, st.integers(1, 40), st.integers(1, 8)),
    )


def words(max_len=12):
    letter = st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1)))
    return st.builds(
        lambda ls: Word(tuple(ls)), st.lists(letter, min_size=0, max_size=max_len)
    )


def random_reduced_word(rng: random.Random, length: int) -> Word:
    letters = []
    while len(letters) < length:
        cand = (rng.choice("ab"), rng.choice((1, -1)))
        if letters and letters[-1] == (cand[0], -cand[1]):
            continue
        letters.append(cand)
    return Word(tuple(letters))
