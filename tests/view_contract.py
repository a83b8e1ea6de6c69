"""The view contract of the value types, as the view tests check it.

``GradedPolynomial.terms`` and ``TautRingElement.coordinates`` decode a
value's integer kernel into a new plain dict on each read.  So every read is
equal to the last and is a different object, and a read the caller changes
(an entry set, an entry deleted, the dict cleared) changes no later read and
none of ``str``, ``==``, ``hash`` or ``coefficient``, which takes a key of the
view.
"""


def _set(view: dict) -> None:
    for key in list(view):
        view[key] += 1
    view["extra"] = 99


def _delete(view: dict) -> None:
    if view:
        del view[next(iter(view))]


def check_fresh_view(value, name: str, twin) -> None:
    """Check the view ``name`` of ``value`` against the contract; ``twin`` is
    an equal value built by another route."""
    first = getattr(value, name)
    observed = str(value), hash(value), {key: value.coefficient(key) for key in first}
    assert type(first) is dict and value == twin and hash(value) == hash(twin)
    for change in (_set, _delete, dict.clear):
        view = getattr(value, name)
        assert type(view) is dict and view == first and view is not first
        change(view)
        assert getattr(value, name) == first
        assert (str(value), hash(value), {key: value.coefficient(key) for key in first}) == observed
        assert value == twin and twin == value
