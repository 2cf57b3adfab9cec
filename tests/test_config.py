import pytest

from sramlab.config import ConfigError, load_config, parse_config, tech_header_lines
from sramlab.devices import TechnologyParams, derive_tech_params


def test_empty_text_yields_the_defaults():
    tech = parse_config("")
    assert tech == TechnologyParams.default()


def test_bare_key_targets_both_polarities():
    tech = parse_config("n = 1.5")
    assert tech.nmos.n == 1.5
    assert tech.pmos.n == 1.5


def test_prefixed_keys_target_one_polarity():
    tech = parse_config("nmos.kp = 120u\npmos.vth0 = 0.5\n")
    assert tech.nmos.kp == 120e-6
    assert tech.pmos.kp == 40e-6
    assert tech.pmos.vth0 == 0.5
    assert tech.nmos.vth0 == 0.4


def test_lambda_alias_and_case_folding():
    tech = parse_config("LAMBDA = 0.08\nPMOS.Vth0 = 0.45\n")
    assert tech.nmos.lam == 0.08
    assert tech.pmos.lam == 0.08
    assert tech.pmos.vth0 == 0.45


def test_temperature_is_global():
    tech = parse_config("temperature = 350")
    assert tech.temperature == 350.0
    assert tech.nmos == TechnologyParams.default().nmos


def test_comments_blanks_and_repeats():
    tech = parse_config(
        "# full-line comment\n"
        "\n"
        "n = 1.5  # trailing comment\n"
        "n = 1.6\n"
    )
    assert tech.nmos.n == 1.6  # last assignment wins


def test_magnitude_suffixes_apply():
    tech = parse_config("nmos.t_ox = 10n")
    derived = derive_tech_params(tech)
    assert derived.nmos.c_ox == pytest.approx(3.5e-3, rel=1e-12)
    # Untouched pmos keeps the default 20 nm oxide.
    assert derived.pmos.c_ox == pytest.approx(1.75e-3, rel=1e-12)


def test_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key 'mobility'"):
        parse_config("n = 1.25\nmobility = 400\n")
    with pytest.raises(ConfigError, match="line 1: bad value"):
        parse_config("vth0 = fast")
    with pytest.raises(ConfigError, match="line 3: expected"):
        parse_config("\n\njust words\n")
    with pytest.raises(ConfigError, match="unknown device prefix 'cmos'"):
        parse_config("cmos.vth0 = 0.4")


def test_base_is_updated_in_place():
    base = TechnologyParams.default()
    out = parse_config("nmos.kp = 110u", base=base)
    assert out is base
    assert base.nmos.kp == 110e-6


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "slow.tech"
    path.write_text("temperature = 398.15\nvth0 = 0.45\n")
    tech = load_config(path)
    assert tech.temperature == 398.15
    assert tech.pmos.vth0 == 0.45


def test_header_lines_echo_the_parameters():
    lines = tech_header_lines(TechnologyParams.default())
    assert lines[0] == "temperature = 300.15"
    assert lines[1].startswith("nmos: ")
    assert lines[2].startswith("pmos: ")
    assert "vth0=0.4" in lines[1]
    assert "kp=4e-05" in lines[2]
    # None-valued derivation inputs stay out of the echo.
    assert "n_a" not in lines[1]
    assert lines == tech_header_lines(TechnologyParams.default())


def test_load_config_clears_values_derived_from_its_inputs(tmp_path):
    path = tmp_path / "oxide.tech"
    path.write_text("nmos.t_ox = 10n\nnmos.n_a = 1e22\nnmos.vth0 = 0.45\n")
    tech = load_config(path)
    # gamma is derived from the file's oxide and doping; vth0 is the file's.
    assert tech.nmos.gamma is None and tech.nmos.vth0 == 0.45
    assert tech.pmos == TechnologyParams.default().pmos
    assert derive_tech_params(tech).nmos.gamma == pytest.approx(
        (2 * 1.602176634e-19 * 1.04e-10 * 1e22) ** 0.5 / 3.5e-3, rel=1e-12
    )
    # Text parsed on its own sets only the keys it names.
    assert parse_config("nmos.t_ox = 10n").nmos.gamma == 0.3


def test_load_config_missing_derivation_input_is_a_config_error(tmp_path):
    path = tmp_path / "charges.tech"
    path.write_text("pmos.phi_ms = 1.1\n")
    with pytest.raises(ConfigError, match="vth0 derivation needs phi_ms and the charge terms"):
        load_config(path)
    path.write_text("c_ox = 0\ngamma = 0.3\nvth0 = 0.4\n")
    with pytest.raises(ConfigError, match="c_ox must be positive"):
        load_config(path)
