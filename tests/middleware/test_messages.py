"""Every message keeps the frozen-dataclass behaviour its callers rely on,
whatever builds its ``__init__``."""

import dataclasses
import inspect

import pytest

from repro.middleware import messages

MESSAGES = [
    getattr(messages, name) for name in messages.__all__ if name != "next_request_id"
]


def values_for(cls):
    return {f.name: f"value-of-{f.name}" for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda cls: cls.__name__)
class TestFrozenMessages:
    def test_keyword_and_positional_construction_agree(self, cls):
        values = values_for(cls)
        by_keyword = cls(**values)
        assert cls(*values.values()) == by_keyword
        for name, value in values.items():
            assert getattr(by_keyword, name) == value
        assert repr(by_keyword).startswith(f"{cls.__name__}(")

    def test_signature_is_the_field_list_with_its_defaults(self, cls):
        parameters = inspect.signature(cls).parameters
        fields = dataclasses.fields(cls)
        assert list(parameters) == [f.name for f in fields]
        required = {f.name: "given" for f in fields if f.default is dataclasses.MISSING}
        record = cls(**required)
        for f in fields:
            if f.name not in required:
                assert parameters[f.name].default is f.default
                assert getattr(record, f.name) is f.default
        with pytest.raises(TypeError):
            cls(**required, no_such_field=1)
        if required:
            with pytest.raises(TypeError):
                cls()

    def test_a_built_message_cannot_be_changed(self, cls):
        """The simulated network hands one object to every recipient."""
        record = cls(**values_for(cls))
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.not_a_field = 1

    def test_replace_and_same_type_equality(self, cls):
        values = values_for(cls)
        record = cls(**values)
        name = dataclasses.fields(cls)[0].name
        changed = dataclasses.replace(record, **{name: "other"})
        assert type(changed) is cls and changed != record
        assert getattr(changed, name) == "other"
        assert dataclasses.replace(changed, **{name: values[name]}) == record
        assert hash(record) == hash(cls(**values))


def test_equal_fields_of_another_type_are_not_equal():
    assert messages.CatchUpRequest("r", 3) == messages.CatchUpRequest("r", 3)
    assert messages.CatchUpRequest("r", 3) != messages.RecoveryRequest("r", 3)
