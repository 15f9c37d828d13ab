"""Tests for the serve subsystem's CatalogStore (index + query plans)."""

import itertools
import json
import math
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.catalog import build_model_catalog
from repro.gw.compare import mismatch
from repro.io.waveforms import load_modes
from repro.jobs.cache import ResultCache
from repro.serve.store import INDEX_FILE, CatalogStore, StoreError


@pytest.fixture(scope="module")
def model_catalog():
    return build_model_catalog((1.0, 2.0, 4.0), samples=512,
                               duration=200.0)


@pytest.fixture
def store(tmp_path, model_catalog):
    s = CatalogStore(tmp_path / "store")
    s.ingest_model_catalog(model_catalog)
    return s


class TestIngest:
    def test_model_catalog(self, store):
        assert len(store) == 3
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["families"] == 1
        assert stats["q_min"] == 1.0 and stats["q_max"] == 4.0
        assert stats["bytes"] > 0

    def test_idempotent(self, store, model_catalog):
        keys1 = store.ingest_model_catalog(model_catalog)
        keys2 = store.ingest_model_catalog(model_catalog)
        assert keys1 == keys2
        assert len(store) == 3

    def test_persists_across_instances(self, store, tmp_path):
        again = CatalogStore(store.root)
        assert len(again) == 3
        assert again.query_plan(2.0)["outcome"] == "exact"

    def test_rejects_bad_waveforms(self, store):
        with pytest.raises(StoreError):
            store.add_waveform(3.0, [0.0], [1.0 + 0j], source="x")
        with pytest.raises(StoreError):
            store.add_waveform(3.0, [0.0, 1.0], [np.nan, 1.0 + 0j],
                               source="x")

    def test_cache_ingest_skips_arrayless(self, tmp_path, store):
        cache = ResultCache(tmp_path / "cache")
        t = np.linspace(0.0, 1.0, 32)
        h = np.exp(1j * t)
        cache.put("a" * 64, {"physics": {"mass_ratio": 3.0,
                                         "extraction_radii": [2.0],
                                         "max_level": 2}},
                  arrays={"times": t, "h22_r2": h})
        cache.put("b" * 64, {"physics": {"mass_ratio": 5.0,
                                         "extraction_radii": [2.0]}})
        cache.put("c" * 64, {"no_physics": True})
        report = store.ingest_cache(cache)
        assert report["ingested"] == 1
        assert report["skipped"] == 2
        # second scan: already indexed, nothing new
        again = store.ingest_cache(cache)
        assert again["ingested"] == 0
        assert again["already"] == 1


class TestReadPath:
    def test_load_arrays_roundtrip(self, store, model_catalog):
        plan = store.query_plan(2.0)
        arrays = store.load_arrays(plan["key"])
        ref = model_catalog.entry(2.0)
        assert np.allclose(arrays["times"], ref.times)
        assert np.allclose(arrays["h22"], ref.h22)

    def test_unknown_key(self, store):
        with pytest.raises(StoreError):
            store.load_arrays("nope")
        with pytest.raises(StoreError):
            store.entry_meta("nope")

    def test_torn_file_detected(self, store):
        key = store.query_plan(1.0)["key"]
        path = store.root / "waveforms" / f"{key}.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(StoreError, match="unreadable|torn"):
            store.load_arrays(key)


class TestQueryPlan:
    def test_exact(self, store):
        plan = store.query_plan(2.0)
        assert plan["outcome"] == "exact"
        assert plan["mismatch_bound"] == 0.0
        assert store.entry_meta(plan["key"])["mass_ratio"] == 2.0

    def test_interp_carries_gap_bound(self, store):
        plan = store.query_plan(1.5)
        assert plan["outcome"] == "interp"
        qs = [store.entry_meta(k)["mass_ratio"] for k in plan["keys"]]
        assert qs == [1.0, 2.0]
        assert plan["weight"] == pytest.approx(0.5)
        # the bound is the stored adjacent mismatch of the bracket
        a = store.load_arrays(plan["keys"][0])
        b = store.load_arrays(plan["keys"][1])
        from repro.gw.compare import mismatch

        dt = float(a["times"][1] - a["times"][0])
        assert plan["mismatch_bound"] == pytest.approx(
            mismatch(a["h22"], b["h22"], dt))

    def test_out_of_range_misses(self, store):
        plan = store.query_plan(40.0)
        assert plan["outcome"] == "miss"
        assert plan["q_range"] == [1.0, 4.0]
        assert "outside covered range" in plan["reason"]
        assert store.entry_meta(plan["nearest"])["mass_ratio"] == 4.0

    def test_budget_turns_interp_into_miss(self, store):
        ok = store.query_plan(3.0)
        assert ok["outcome"] == "interp"
        tight = store.query_plan(3.0, max_interp_mismatch=1e-6)
        assert tight["outcome"] == "miss"
        assert "exceeds budget" in tight["reason"]

    def test_families_do_not_mix_grids(self, store):
        # an entry on a different grid cannot bracket-interpolate with
        # the model family even though its q falls inside the range
        t = np.linspace(0.0, 10.0, 64)
        store.add_waveform(2.5, t, np.exp(1j * t), source="odd-grid")
        plan = store.query_plan(2.25)
        assert plan["outcome"] == "interp"
        qs = sorted(store.entry_meta(k)["mass_ratio"]
                    for k in plan["keys"])
        assert qs == [2.0, 4.0]  # model family, not the odd-grid entry

    def test_filters(self, store):
        t = np.linspace(0.0, 10.0, 64)
        store.add_waveform(2.0, t, np.exp(1j * t), radius=50.0,
                           resolution=7, source="hi-res")
        # exact prefers the highest resolution
        plan = store.query_plan(2.0)
        assert store.entry_meta(plan["key"])["resolution"] == 7
        # filtering by radius picks the matching entry
        plan = store.query_plan(2.0, radius=50.0)
        assert store.entry_meta(plan["key"])["source"] == "hi-res"
        plan = store.query_plan(2.0, resolution=0)
        assert store.entry_meta(plan["key"])["resolution"] == 0
        # filters that nothing satisfies are an empty-catalog miss
        assert store.query_plan(2.0, radius=999.0)["outcome"] == "miss"


# -- oracles: the implementations this PR replaced, kept as plain code ----

def plan_oracle(index: dict, q, radius, resolution, budget) -> dict:
    """``CatalogStore._plan_locked`` as it was: every index row walked
    with ``np.isclose``."""
    rows = [
        r for r in index["entries"].values()
        if (radius is None or np.isclose(r["radius"], radius))
        and (resolution is None or r["resolution"] == int(resolution))
    ]
    if not rows:
        return {"outcome": "miss", "nearest": None, "q_range": None,
                "reason": "empty catalog (after filters)"}
    exact = [r for r in rows if np.isclose(r["mass_ratio"], q)]
    if exact:
        best = max(exact, key=lambda r: (r["resolution"], r["radius"]))
        return {"outcome": "exact", "key": best["key"],
                "mismatch_bound": 0.0}
    allowed = {r["key"] for r in rows}
    best = None
    for fam in index["families"].values():
        keys, gaps = fam["keys"], fam["gaps"]
        for i, (k_lo, k_hi) in enumerate(zip(keys, keys[1:])):
            if k_lo not in allowed or k_hi not in allowed:
                continue
            q_lo = index["entries"][k_lo]["mass_ratio"]
            q_hi = index["entries"][k_hi]["mass_ratio"]
            if not (q_lo < q < q_hi):
                continue
            if best is None or gaps[i] < best["mismatch_bound"]:
                best = {"outcome": "interp", "keys": [k_lo, k_hi],
                        "weight": (q - q_lo) / (q_hi - q_lo),
                        "mismatch_bound": float(gaps[i])}
    if best is not None and best["mismatch_bound"] <= budget:
        return best
    qs = sorted(r["mass_ratio"] for r in rows)
    nearest = min(rows, key=lambda r: abs(r["mass_ratio"] - q))
    reason = (
        f"bracket mismatch {best['mismatch_bound']:.4f} exceeds "
        f"budget {budget:.4f}" if best is not None
        else f"q = {q:g} outside covered range [{qs[0]:g}, {qs[-1]:g}]"
    )
    return {"outcome": "miss", "nearest": nearest["key"],
            "q_range": [qs[0], qs[-1]], "reason": reason}


def refreshed_oracle(store: CatalogStore) -> dict:
    """The index with every family's ordering and every adjacent
    mismatch recomputed from the files, as each insert used to do."""
    index = json.loads(json.dumps(store._index))
    for family in index["families"]:
        members = sorted((r for r in index["entries"].values()
                          if r["family"] == family),
                         key=lambda r: r["mass_ratio"])
        gaps = [float(mismatch(store.load_arrays(lo["key"])["h22"],
                               store.load_arrays(hi["key"])["h22"],
                               lo["dt"]))
                for lo, hi in zip(members, members[1:])]
        index["families"][family] = {"keys": [r["key"] for r in members],
                                     "gaps": gaps}
    return index


# mass ratios that collide (1 + 5e-6 is np.isclose to 1, 1 + 2e-5 is
# not), radii likewise (50.0004 ~ 50, 50.001 not), a few resolutions,
# three time grids = three families
QS = [1.0, 1.0 + 5e-6, 1.0 + 2e-5, 1.5, 2.0, 2.0 + 1e-7, 3.0, 4.0]
RADII = [math.inf, 50.0, 50.0004, 50.001, 100.0]
ENTRY = st.tuples(st.sampled_from(QS), st.sampled_from(RADII),
                  st.integers(0, 2), st.sampled_from([8, 9, 10]))
QUERY_QS = QS + [0.5, 1.0 + 1e-5, 1.25, 1.75, 2.5, 3.5, 9.0, 1e17,
                 math.inf, -math.inf, math.nan]
FILTER = st.tuples(st.sampled_from([None, None] + RADII + [999.0]),
                   st.sampled_from([None, None, 0, 1, 2, 7]))


def build_store(root, entries) -> CatalogStore:
    store = CatalogStore(root)
    for n, (q, radius, resolution, samples) in enumerate(entries):
        t = np.linspace(0.0, 1.0, samples)
        store.add_waveform(q, t, np.exp(1j * (n + 1.5) * q * t),
                           radius=radius, resolution=resolution,
                           source=f"s{n}")
    return store


class TestQueryPlanDifferential:
    @settings(max_examples=100, deadline=None)
    @given(entries=st.lists(ENTRY, max_size=12),
           filters=st.lists(FILTER, min_size=1, max_size=3),
           coarse=st.booleans(), data=st.data())
    def test_plans_equal_the_row_walking_oracle(self, entries, filters,
                                                coarse, data):
        with tempfile.TemporaryDirectory() as root:
            built = build_store(root, entries)
            # a reopened store lists its rows in index.json's sorted-key
            # order, the building one in insertion order: ties differ
            for store in (built, CatalogStore(root)):
                index = store._index
                if coarse:  # families whose smallest gaps tie exactly
                    for fam in index["families"].values():
                        fam["gaps"] = [round(g, 1) for g in fam["gaps"]]
                gaps = sorted({g for f in index["families"].values()
                               for g in f["gaps"]}) or [0.25]
                for q, (radius, resolution) in itertools.product(
                        QUERY_QS, filters):
                    gap = data.draw(st.sampled_from(gaps))
                    budget = data.draw(st.sampled_from([
                        None, gap, math.nextafter(gap, -1.0),
                        math.nextafter(gap, 1.0), 0.0, 1.0]))
                    plan = store.query_plan(
                        q, radius=radius, resolution=resolution,
                        max_interp_mismatch=budget)
                    assert plan == plan_oracle(
                        index, q, radius, resolution,
                        store.max_interp_mismatch if budget is None
                        else budget), (q, radius, resolution, budget)

    def test_plan_cost_does_not_grow_with_the_catalog(self, tmp_path):
        """An exact or bracketed plan bisects: it looks at the rows next
        to the query, however many the catalog holds."""
        looked = []

        class Row(dict):
            def __getitem__(self, name):
                looked.append(self.get("key"))
                return dict.__getitem__(self, name)

        counts = {}
        for n in (8, 64):
            store = build_store(tmp_path / str(n), [
                (1.0 + i, math.inf, 0, 8) for i in range(n)])
            for qs, rows in store._tables.values():
                rows[:] = [Row(r) for r in rows]
            looked.clear()
            assert store.query_plan(3.0)["outcome"] == "exact"
            assert store.query_plan(3.5, max_interp_mismatch=1.0)[
                "outcome"] == "interp"
            counts[n] = len(set(looked))
        assert counts[8] == counts[64] <= 4


class TestIncrementalRefresh:
    N = 24

    def entries(self):
        return [(1.0 + 7.0 * i / (self.N - 1), math.inf, 0, 16)
                for i in range(self.N)]

    @pytest.mark.parametrize("order", ["in-order", "reverse", "shuffled"])
    def test_index_bytes_equal_the_full_recompute(self, tmp_path, order,
                                                  monkeypatch):
        entries = self.entries()
        if order == "reverse":
            entries.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(entries)
        decodes = []
        real = CatalogStore.load_arrays
        monkeypatch.setattr(
            CatalogStore, "load_arrays",
            lambda self, key: decodes.append(key) or real(self, key))
        store = build_store(tmp_path / "store", entries)
        # O(entries) decodes — every insert used to re-decode the family
        # (552 for these 24): now at most its two neighbours
        assert len(decodes) <= 2 * self.N
        monkeypatch.undo()
        on_disk = (store.root / INDEX_FILE).read_text(encoding="utf-8")
        assert on_disk == json.dumps(refreshed_oracle(store), indent=1,
                                     sort_keys=True)
        assert len(json.loads(on_disk)["families"]) == 1

    def test_cache_entry_joins_an_existing_family(self, tmp_path):
        store = build_store(tmp_path / "store", self.entries()[:6])
        (family,) = store._index["families"]
        cache = ResultCache(tmp_path / "cache")
        t = np.linspace(0.0, 1.0, 16)  # the family's grid
        for n, q in enumerate((1.9, 0.5, 1.9)):
            cache.put(f"{n}" * 64,
                      {"physics": {"mass_ratio": q, "max_level": 3,
                                   "extraction_radii": [2.0]}},
                      arrays={"times": t, "h22_r2": np.exp(2j * q * t)})
        # through a reopened store, as the front's ingest sweep finds it
        store = CatalogStore(store.root)
        assert store.ingest_cache(cache)["ingested"] == 3
        assert list(store._index["families"]) == [family]
        assert len(store._index["families"][family]["keys"]) == 9
        on_disk = (store.root / INDEX_FILE).read_text(encoding="utf-8")
        assert on_disk == json.dumps(refreshed_oracle(store), indent=1,
                                     sort_keys=True)
        assert store.query_plan(1.9, resolution=3)["outcome"] == "exact"


class TestDecodeEquality:
    def test_load_arrays_is_bitwise_the_list_round_trip(self, store):
        """``load_arrays`` reads the file's arrays as they are; it used
        to go through ``load_modes``' lists of NumPy scalars."""
        for key in store.entries():
            arrays = store.load_arrays(key)
            series, _, _ = load_modes(store.root / "waveforms"
                                      / f"{key}.npz")
            t, h = series.series(2, 2)
            for got, ref in ((arrays["times"], t), (arrays["h22"], h)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
