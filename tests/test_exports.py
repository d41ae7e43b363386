"""The package's public names: each one in ``twistspec.__all__`` resolves,
and every error class in ``twistspec.errors`` is among them."""

import twistspec
from twistspec import errors


def test_every_exported_name_resolves():
    assert len(set(twistspec.__all__)) == len(twistspec.__all__)
    missing = [name for name in twistspec.__all__
               if not hasattr(twistspec, name)]
    assert not missing


def test_every_error_class_is_exported():
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type)
               and issubclass(value, errors.TwistspecError)}
    assert set(classes) <= set(twistspec.__all__)
    for name, value in classes.items():
        assert getattr(twistspec, name) is value
