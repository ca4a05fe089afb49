import json

import numpy as np
import pytest

from betaplane.cache import CurveCache, cache_key
from betaplane.tables import CurveTable, format_number


class TestFormat:
    def test_float_round_trip(self):
        for x in (np.pi, 1e-300, -2.4674011002723395, 0.1, 3.0):
            assert float(format_number(x)) == x

    def test_ints_and_strings_pass_through(self):
        assert format_number(7) == "7"
        assert format_number("Gamma+") == "Gamma+"


class TestCurveTable:
    def make(self):
        t = CurveTable(
            name="demo",
            columns=["x", "y", "error_estimate"],
            metadata={"resolution": 256, "schedule": [0.1, 0.05]},
        )
        t.add_row(1.0, np.pi, 1e-8)
        t.add_row(2.0, 2 * np.pi, 2e-8)
        return t

    def test_csv_round_trip(self):
        t = self.make()
        back = CurveTable.from_csv(t.to_csv())
        assert back.columns == t.columns
        assert back.rows == t.rows
        assert back.name == "demo"

    def test_csv_deterministic(self):
        assert self.make().to_csv() == self.make().to_csv()

    def test_csv_uses_lf_and_hash_metadata(self):
        text = self.make().to_csv()
        assert "\r" not in text
        assert text.startswith("# table: demo\n")
        assert "# resolution: 256" in text

    def test_json_mirrors_csv_fields(self):
        t = self.make()
        payload = json.loads(t.to_json())
        assert payload["columns"] == t.columns
        assert payload["rows"][0][1] == pytest.approx(np.pi)

    def test_json_floats_shortest_round_trip(self):
        # the same doubles as the %.17g CSV cells, in their shortest form
        t = CurveTable(name="short", columns=["x", "y"])
        t.add_row(0.1, np.float64(0.1))
        t.add_row(float("nan"), -0.0)
        text = t.to_json()
        assert "[\n      0.1,\n      0.1\n    ]" in text
        assert "[\n      NaN,\n      -0.0\n    ]" in text
        assert "0.10000000000000001" in t.to_csv()

    def test_wrong_arity_rejected(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.add_row(1.0, 2.0)

    def test_column_accessor(self):
        t = self.make()
        assert t.column("x") == [1.0, 2.0]


class TestCache:
    def test_key_stability_and_sensitivity(self):
        k1 = cache_key("op", beta=1.0, resolution=256, schedule=(0.1, 0.05))
        k2 = cache_key("op", resolution=256, beta=1.0, schedule=(0.1, 0.05))
        assert k1 == k2
        assert k1 != cache_key("op", beta=1.0 + 1e-12, resolution=256, schedule=(0.1, 0.05))
        assert k1 != cache_key("op", beta=1.0, resolution=512, schedule=(0.1, 0.05))

    def test_round_trip_exact(self, tmp_path):
        cache = CurveCache(tmp_path)
        t = CurveTable(name="probe", columns=["a", "b"], rows=[(np.pi, 2.4674011002723395)])
        key = cache_key("probe", x=1.0)
        assert cache.get(key) is None
        cache.put(key, t)
        back = cache.get(key)
        assert back.rows[0][0] == np.pi
        assert back.rows[0][1] == 2.4674011002723395
        assert cache.hits == 1 and cache.misses == 1
