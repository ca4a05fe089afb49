import json

import numpy as np
import pytest

from betaplane import atlas
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
        lines = t.to_csv().splitlines()
        meta = [line for line in lines if line.startswith("# ")]
        header, *rows = [line for line in lines if not line.startswith("#")]
        assert meta[0] == "# table: demo"
        assert header.split(",") == t.columns
        assert [tuple(float(c) for c in r.split(",")) for r in rows] == t.rows

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
        k1 = cache_key("op", beta=1.0, resolution=256)
        assert k1 == cache_key("op", resolution=256, beta=1.0)
        assert k1 != cache_key("op", beta=1.0 + 1e-12, resolution=256)
        assert k1 != cache_key("op", beta=1.0, resolution=512)

    def test_round_trip_exact(self, tmp_path):
        cache = CurveCache(tmp_path)
        t = CurveTable(name="probe", columns=["x", "lambda1", "error_estimate"])
        t.add_row(1.0, np.pi, 2.4674011002723395)
        key = cache_key("probe", x=1.0)
        assert cache.get(key) is None
        cache.put(key, t)
        assert cache.get(key) == (np.pi, 2.4674011002723395)
        assert cache.hits == 1 and cache.misses == 1

    def test_wall_entry_pinned(self, tmp_path):
        # the exact wall value, the zero of the Frobenius series phi1(2), is
        # 1.5196841981976354: 1.3e-11 from the pinned value, inside its bar
        cold = atlas.lambda1_wall(0.75, cache=CurveCache(tmp_path))
        (entry,) = tmp_path.iterdir()
        assert entry.name == "lambda1-wall-direct-d5caf7366e2a16ec0adce97e.csv"
        assert entry.read_bytes() == (
            b"# table: lambda1-wall-direct\n# resolution: 256\nbeta,lambda1,error_estimate\n"
            b"0.75,1.5196841981843356,2.870524595352161e-09\n"
        )
        warm_cache = CurveCache(tmp_path)
        warm = atlas.lambda1_wall(0.75, cache=warm_cache)
        assert warm == cold and warm_cache.hits == 1 and warm_cache.misses == 0
