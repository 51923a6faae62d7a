import pickle

import pytest

from uqlab import errors
from uqlab.errors import ConfigError, ParseError, UqlabError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__ == errors.__name__:
            yield sub
            yield from _subclasses(sub)


# One instance of every error class, with each attribute its constructor sets.
INSTANCES = {
    ConfigError: lambda: ConfigError("must be >= 1", key="epochs"),
    ParseError: lambda: ParseError("label must be 0 or 1", line=7),
}


def test_every_error_class_has_an_instance_here():
    classes = {cls for cls in vars(errors).values() if isinstance(cls, type)}
    assert set(_subclasses(UqlabError)) == classes - {UqlabError}


@pytest.mark.parametrize("cls", [UqlabError, *_subclasses(UqlabError)], ids=lambda c: c.__name__)
def test_pickle_round_trip_keeps_message_and_attributes(cls):
    # Errors raised in a worker process reach the parent through pickle;
    # the message there must be the one the parent shows, tag included.
    exc = INSTANCES.get(cls, lambda: cls("deliberate"))()
    exc.args = (f"seed=0 method=msp stage=train: {exc}",)  # as experiment._stage tags it
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert back.args == exc.args and str(back) == str(exc)
    assert vars(back) == vars(exc)
