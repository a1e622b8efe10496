"""Scenario generation, table derivation, and serialization."""

import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from backhaul_planner import (
    GenParams,
    RadioConfig,
    Scenario,
    Site,
    derive_tables,
    generate_scenario,
    preset_gen_params,
    scenario_hash,
)
from backhaul_planner.scenario import (
    MAX_GRID_CELLS,
    Machine,
    _distances,
    ScenarioFormatError,
    indented_json,
    load_scenario,
    load_tables,
    save_scenario,
    save_tables,
    scenario_from_dict,
    scenario_to_dict,
)
from util import TINY_RADIO, mid_gen_params, tiny_instance


class TestGeneration:
    def test_same_seed_same_scenario(self, tmp_path):
        params = GenParams(n_ban=3, n_sbs=6, n_ma=2, n_machines=30)
        a = generate_scenario(params, 42)
        b = generate_scenario(params, 42)
        assert a == b
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(a, pa)
        save_scenario(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert generate_scenario(params, 43) != a

    def test_paper_grid_size(self):
        scenario = generate_scenario(preset_gen_params("paper-fig2"), 1)
        assert scenario.n_subareas == 1600
        assert (len(scenario.ban_sites), len(scenario.sbs_sites), len(scenario.ma_sites)) == (5, 40, 20)
        assert scenario.n_machines == 2000
        assert scenario.radio.machine_limit == 600
        assert scenario.ban_slots == 5 and scenario.max_relays == 2

    def test_explicit_site_mode(self):
        params = GenParams(
            n_ban=2,
            n_sbs=1,
            n_ma=0,
            n_machines=0,
            width=100,
            height=100,
            ban_positions=((10.0, 10.0), (90.0, 90.0)),
            sbs_positions=((50.0, 50.0),),
            ma_positions=(),
        )
        scenario = generate_scenario(params, 0)
        assert [(s.x, s.y) for s in scenario.ban_sites] == [(10.0, 10.0), (90.0, 90.0)]
        assert [(s.x, s.y) for s in scenario.sbs_sites] == [(50.0, 50.0)]
        assert scenario.ma_sites == ()

    def test_zero_machines_is_valid(self):
        scenario = generate_scenario(GenParams(n_machines=0), 5)
        assert scenario.n_machines == 0

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            generate_scenario(GenParams(width=0.0), 1)

    def test_sites_inside_area_enforced(self):
        with pytest.raises(ValueError):
            Scenario(
                width=10,
                height=10,
                radio=RadioConfig(),
                ban_sites=(Site(50.0, 5.0, 10.0),),
                sbs_sites=(),
                ma_sites=(),
                machines=(),
                subarea_side=5.0,
            )

    def test_grid_count_formula(self):
        scenario = generate_scenario(GenParams(width=95, height=42, subarea_side=10, n_machines=0), 3)
        assert scenario.grid_shape == (10, 5)
        assert scenario.n_subareas == 50

    @pytest.mark.parametrize("side", [1e-300, 1e-320])
    def test_a_grid_above_the_cap_names_subarea_side(self, side):
        scenario, _ = tiny_instance(21)
        with pytest.raises(ScenarioFormatError, match="subarea_side"):
            dataclasses.replace(scenario, subarea_side=side)

    def test_the_cap_counts_whole_cells(self):
        """316 x 316 cells fit under the cap of 100,000; a 316.5 m square
        has 317 x 317, although 316.5 squared is below the cap."""
        assert MAX_GRID_CELLS == 100_000
        site = (Site(0.0, 0.0, 1.0),)
        fits = Scenario(316, 316, RadioConfig(), site, (), (), (), subarea_side=1.0)
        assert fits.n_subareas == 99_856
        with pytest.raises(ScenarioFormatError, match="subarea_side"):
            Scenario(316.5, 316.5, RadioConfig(), site, (), (), (), subarea_side=1.0)
        with pytest.raises(ScenarioFormatError, match="subarea_side"):  # 1e6 x 1 cells
            Scenario(1e6, 1e-6, RadioConfig(), site, (), (), (), subarea_side=1.0)


# (field, value) -> the message's tail after "scenario field '<point>"
POINT_FAULTS = {
    "x-bool": ("x", True, ".x': expected a number, got True"),
    "x-text": ("x", "3", ".x': expected a number, got '3'"),
    "x-nan": ("x", math.nan, ".x': must be finite, got nan"),
    "x-inf": ("x", math.inf, ".x': must be finite, got inf"),
    "y-minus-inf": ("y", -math.inf, ".y': must be finite, got -inf"),
    "y-negative": ("y", -1.0, ".y': must be at least 0, got -1.0"),
    "amount-zero": ("amount", 0, ".{amount}': must be greater than 0, got 0"),
    "amount-inf": ("amount", math.inf, ".{amount}': must be finite, got inf"),
    "amount-negative": ("amount", -2.5, ".{amount}': must be greater than 0, got -2.5"),
    "x-outside": ("x", 10.5, "': position (10.5, 2.0) outside area"),
    "y-outside": ("y", 11, "': position (1.0, 11) outside area"),
}


def scenario_with_point(role: str, x=1.0, y=2.0, amount=3.0) -> Scenario:
    """A 10 x 10 scenario whose second BAN site (role "site") or second
    machine (role "machine") has the given position and cost or rate."""
    site = Site(x, y, amount) if role == "site" else Site(1.0, 1.0, 1.0)
    machines = (Machine(x, y, amount),) if role == "machine" else ()
    return Scenario(
        width=10, height=10, radio=RadioConfig(), ban_sites=(Site(5.0, 5.0, 1.0), site), sbs_sites=(),
        ma_sites=(), machines=(Machine(1.0, 1.0, 1.0),) + machines, subarea_side=5.0,
    )


class TestPointChecks:
    @pytest.mark.parametrize("role", ["site", "machine"])
    @pytest.mark.parametrize("fault", sorted(POINT_FAULTS))
    def test_message_names_the_point_and_its_fault(self, role, fault):
        field, value, tail = POINT_FAULTS[fault]
        point, amount = ("ban_sites[1]", "cost") if role == "site" else ("machines[1]", "rate")
        with pytest.raises(ScenarioFormatError) as err:
            scenario_with_point(role, **{field: value})
        assert str(err.value) == f"scenario field '{point}" + tail.format(amount=amount)

    @pytest.mark.parametrize("role", ["site", "machine"])
    def test_other_numbers_on_the_boundary_pass(self, role):
        scenario_with_point(role, x=10, y=np.float64(0.0), amount=Fraction(1, 3))


COORDINATES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 2.0**53 + 2]))


class TestDerivedTables:
    @given(pos=st.tuples(COORDINATES, COORDINATES), points=st.lists(st.tuples(COORDINATES, COORDINATES), max_size=8))
    @example(pos=(-0.0, 0.0), points=[(0.0, -0.0), (-0.0, -0.0), (1e308, -1e308), (-1e308, 1e308)])
    def test_distance_rows_match_hypot_bit_for_bit(self, pos, points):
        expected = [math.hypot(pos[0] - x, pos[1] - y) for x, y in points]
        assert [d.hex() for d in _distances(pos, points)] == [d.hex() for d in expected]

    def test_radii_shared_within_role(self):
        scenario, tables = tiny_instance(11)
        # all stations of one role share the link budget, so one radius each
        assert tables.ban_radius_m == tables.sbs_radius_m  # equal tx defaults
        assert tables.ma_range_m == scenario.radio.ma_range_m

    def test_reach_rows_sorted_by_distance(self):
        scenario, tables = tiny_instance(12)
        for i, row in enumerate(tables.sbs_reach):
            dists = [tables.sbs_subarea_m[i][s] for s in row]
            assert dists == sorted(dists)
            assert all(d <= tables.sbs_radius_m + 1e-9 for d in dists)

    def test_out_of_range_station_has_empty_row(self):
        params = GenParams(
            width=500,
            height=500,
            subarea_side=100,
            n_ban=1,
            n_sbs=1,
            n_ma=0,
            n_machines=0,
            ban_positions=((0.0, 0.0),),
            sbs_positions=((499.0, 499.0),),
            ma_positions=(),
            radio=TINY_RADIO,
        )
        scenario = generate_scenario(params, 0)
        tables = derive_tables(scenario)
        # the far corner station reaches no subarea CENTER within ~20 m except its own cell
        far = [s for s in tables.sbs_reach[0]]
        assert all(tables.sbs_subarea_m[0][s] <= tables.sbs_radius_m for s in far)

    def test_machine_limit_carried_from_radio(self):
        scenario = generate_scenario(preset_gen_params("paper-fig2"), 2)
        tables_small = derive_tables(
            generate_scenario(GenParams(n_ban=1, n_sbs=1, n_ma=1, n_machines=3), 2)
        )
        assert tables_small.machine_limit == 600
        assert scenario.radio.machine_limit == 600

    def test_deterministic(self):
        s1, t1 = tiny_instance(13)
        s2, t2 = tiny_instance(13)
        assert s1 == s2
        assert t1 == t2

    def test_an_infinite_subarea_area_fits_no_link(self):
        """A 1e200 m side gives one subarea of infinite area, so infinitely
        many expected users: no live link can serve it."""
        scenario, _ = tiny_instance(2000, n_ban=2, n_sbs=3)
        huge = dataclasses.replace(scenario, subarea_side=1e200)
        tables = derive_tables(huge)
        assert huge.n_subareas == 1 and huge.subarea_area_m2 == math.inf
        assert any(c > 0 for row in tables.ban_sbs_capacity + tables.sbs_sbs_capacity for c in row)
        assert tables.ban_sbs_limit == ((0, 0, 0),) * 2
        assert tables.sbs_sbs_limit == ((0, 0, 0),) * 3

    def test_self_links_disabled(self):
        _, tables = tiny_instance(14)
        for i, row in enumerate(tables.sbs_sbs_limit):
            assert row[i] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_station_links_symmetric(self, seed):
        tables = derive_tables(generate_scenario(mid_gen_params(seed), seed))
        for name in ("sbs_sbs_capacity", "sbs_sbs_limit"):
            rows = getattr(tables, name)
            assert rows == tuple(zip(*rows)), name
        assert any(c > 0 for row in tables.sbs_sbs_capacity for c in row)

    # sha256 of the sidecar bytes that derive and save_tables write; every
    # rewrite of either must keep them
    PINNED_SIDECARS = {
        "golden": "53ba734a5b430c383acada396650326f1a467a2128bf676616c34aa2a5f2c891",
        "paper-fig2-seed-0": "42a2524fc9a31fafafe3ce92bc7bfcc92d21595441c35259503f2fc795aa0e77",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SIDECARS))
    def test_sidecar_bytes_pinned(self, tmp_path, name):
        if name == "golden":
            scenario = load_scenario(Path(__file__).parent / "data" / "golden_scenario.json")
        else:
            scenario = generate_scenario(preset_gen_params("paper-fig2"), 0)
        path = tmp_path / "tables.json"
        save_tables(scenario, derive_tables(scenario), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SIDECARS[name]


class TestSerialization:
    def test_scenario_round_trip(self, tmp_path):
        scenario, _ = tiny_instance(21)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario
        assert scenario_hash(load_scenario(path)) == scenario_hash(scenario)

    @pytest.mark.parametrize("name", ["golden", "fig2-dense", "tiny-search"])
    def test_scenario_bytes_as_the_indenting_encoder_writes_them(self, tmp_path, name):
        if name == "golden":
            scenario = load_scenario(Path(__file__).parent / "data" / "golden_scenario.json")
        elif name == "fig2-dense":
            params = dataclasses.replace(preset_gen_params("paper-fig2"), n_sbs=30, n_ma=5)
            scenario = generate_scenario(params, 0)
        else:
            scenario, _ = tiny_instance(2000, n_ban=3, n_sbs=2, n_ma=2, n_machines=10)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        expected = json.dumps(scenario_to_dict(scenario), indent=1, sort_keys=True) + "\n"
        assert path.read_text() == expected

    FLOATS = [1e-07, 1e16, -0.0, 0.0, 3.0, 2.5e-320, 1.7976931348623157e308, 0.1 + 0.2, float("inf"), -12345678.0]

    def test_floats_and_shapes_as_the_indenting_encoder_writes_them(self):
        scenario, _ = tiny_instance(21)
        data = scenario_to_dict(scenario)
        data["ban_sites"][0].update(x=1e-07, y=-0.0, cost=1e16)
        data["machines"][-1]["rate"] = 50000
        values = [data, self.FLOATS, {"rows": [{"a": x, "b": [x, {}]} for x in self.FLOATS]}, [], {}, [[]],
                  [{}], {"k": [[], {}]}, [{"a, b": "c, d", "e": "},\n  {"}, {"f": None}], "text", 7, True]
        for value in values:
            assert indented_json(value) == json.dumps(value, indent=1, sort_keys=True)

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=30,
    )

    @given(JSON)
    def test_any_json_value_as_the_indenting_encoder_writes_it(self, value):
        assert indented_json(value) == json.dumps(value, indent=1, sort_keys=True)

    def test_dict_round_trip_via_json(self):
        scenario, _ = tiny_instance(22)
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(data) == scenario

    def test_missing_field_names_the_field(self):
        scenario, _ = tiny_instance(23)
        data = scenario_to_dict(scenario)
        del data["subarea_side"]
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(data)
        assert "subarea_side" in str(err.value)

    def test_bad_site_entry_named(self):
        scenario, _ = tiny_instance(24)
        data = scenario_to_dict(scenario)
        data["ban_sites"][0] = {"x": 1.0}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(data)
        assert "ban_sites[0]" in str(err.value)

    def test_tables_cache_round_trip(self, tmp_path):
        scenario, tables = tiny_instance(25)
        path = tmp_path / "tables.json"
        save_tables(scenario, tables, path)
        assert load_tables(path, scenario) == tables

    def test_tables_cache_rejects_other_scenario(self, tmp_path):
        scenario, tables = tiny_instance(26)
        other, _ = tiny_instance(27)
        path = tmp_path / "tables.json"
        save_tables(scenario, tables, path)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_tables(path, other)

    def test_tables_cache_rejects_one_changed_value(self, tmp_path):
        scenario, tables = tiny_instance(26)
        path = tmp_path / "tables.json"
        save_tables(scenario, tables, path)
        text = path.read_text()
        data = json.loads(text)
        assert json.dumps(data, sort_keys=True) + "\n" == text  # so only the changed value differs
        data["ban_sbs_limit"][0][0] += 1
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_tables(path, scenario)

    def test_hash_stable_and_content_sensitive(self):
        a, _ = tiny_instance(28)
        b, _ = tiny_instance(28)
        c, _ = tiny_instance(29)
        assert scenario_hash(a) == scenario_hash(b)
        assert scenario_hash(a) != scenario_hash(c)
