from doublephase import props
from doublephase.props import run_property_suites


def test_suites_pass_on_preset(preset_data, mesh4):
    results = run_property_suites(mesh4, preset_data, n=20)
    assert [r.name for r in results] == [
        "modular_norm",
        "norm_sandwich",
        "operator_monotone",
        "fiber_identity",
        "gradient_fd",
    ]
    assert all(r.ok and r.failed == 0 and r.worst == 0.0 for r in results)
    assert [r.checked for r in results] == [20, 20, 20, 20, 8]


def test_a_broken_norm_fails_every_check_of_its_suite(preset_data, mesh4, monkeypatch):
    # norm_star = 4 x norm_custom breaks the equality the sandwich suite checks
    norm_star = props.norm_star
    monkeypatch.setattr(props, "norm_star", lambda *args, **kwargs: 4.0 * norm_star(*args, **kwargs))
    results = {r.name: r for r in run_property_suites(mesh4, preset_data, n=20)}
    sandwich = results.pop("norm_sandwich")
    assert not sandwich.ok
    assert sandwich.failed == sandwich.checked == 20
    assert sandwich.worst > 0
    assert all(r.ok for r in results.values())


def test_a_power_bound_violated_above_rounding_fails(preset_data, monkeypatch):
    # on a square of side 1e100 the modular is |u|^p to a few eps, so a lower
    # bound |u|^p raised by 32 eps exceeds it beyond rounding at every draw
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(4, 4, rect=(0.0, 0.0, 1e100, 1e100))
    assert run_property_suites(mesh, preset_data, n=20)[0].ok
    bound = props._bound
    monkeypatch.setattr(props, "_bound", lambda base, exponent: bound(base, exponent) * (1.0 + 32 * 2.0**-52))
    modular = run_property_suites(mesh, preset_data, n=20)[0]
    assert modular.name == "modular_norm" and modular.failed == modular.checked == 20 and modular.worst == 1.0
